"""xyquench benchmark: closed-loop xy-quench requests with checked outputs.

    python3 bench/run.py --workload surface --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  One
client sends one request at a time, each a fresh process running
``xyquench.cli.main(argv)`` with ``--workers 1`` (``bench/request.py``), until
``--seconds`` have passed.  Every request's output is checked: the first
against the stored reference values (``bench/ref``, to 1e-13), every later one
byte for byte against the first.  ``run_s`` is the median wall time of
``cli.main`` scaled to a reference machine speed, which each request process
measures right after ``cli.main`` with the fixed kernel in
``bench/calibrate.py``.  ``--trace 1`` alternates traced and untraced
requests and reports per-layer metrics instead of the end-to-end ones.  The
last line of standard output is the JSON result; the lines before it are the
human-readable report.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path(".bench_build") / "xyquench"  # relative to ROOT, so outputs name it the same way
REF_DIR = BENCH / "ref"
REF_TOL = 1e-13
REQUEST_TIMEOUT_S = 120
SETUP_SAMPLES = 10  # set-up-only processes top the requests' samples up to this
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("surface", "timeseries", "oracle")

# The seed picks one of these field sets (seed % 4); it never changes the work
# size.  Set 0 is the canonical request.  Every set runs with exit code 0 and
# has a stored reference output (bench/make_refs.py).
SURFACE_GRIDS = ((0.0, 3.0), (0.02, 2.98), (0.05, 3.0), (0.0, 2.95))
FIELD_PAIRS = ((1.001, 0.5), (0.9, 0.5), (1.1, 0.5), (0.95, 0.5))
VARIANTS = len(FIELD_PAIRS)


def workload_argv(workload: str, seed: int) -> list:
    """xy-quench arguments of one request, before --workers and --out."""
    variant = seed % VARIANTS
    if workload == "surface":
        lo, hi = SURFACE_GRIDS[variant]
        return ["surface", "--kt", "0", "--offset", "3", "--grid-min", repr(lo),
                "--grid-max", repr(hi), "--grid-steps", "61"]
    a, b = FIELD_PAIRS[variant]
    if workload == "timeseries":
        return ["timeseries", "--n-sites", "20000", "--field-a", repr(a), "--field-b", repr(b),
                "--kt", "0.5", "--t-end", "40", "--t-steps", "801", "--time-average", "20",
                "--offset", "1"]
    if workload == "oracle":
        return ["oracle-compare", "--field-a", repr(a), "--field-b", repr(b), "--kt", "0.5",
                "--n-list", "6,8,10"]
    raise ValueError(f"unknown workload {workload!r}")


def reference_path(workload: str, seed: int) -> Path:
    return REF_DIR / f"{workload}-{seed % VARIANTS}.csv.gz"


# --- output checks -------------------------------------------------------------

def data_lines(text: str) -> list:
    """Header and rows of a CSV output, without the '# key = value' lines."""
    return [line for line in text.splitlines() if not line.startswith("#")]


def compare(output: str, reference: str, tol: float = REF_TOL):
    """(ok, largest deviation, first problem) of output against reference values.

    Numbers may differ by at most ``tol``; everything else must be equal.
    """
    got, want = data_lines(output), data_lines(reference)
    if not got or got[0] != want[0]:
        return False, None, f"header {got[:1]} != {want[:1]}"
    if len(got) != len(want):
        return False, None, f"{len(got) - 1} rows, reference has {len(want) - 1}"
    worst = 0.0
    for row, (line, ref_line) in enumerate(zip(got[1:], want[1:]), start=1):
        cells, ref_cells = line.split(","), ref_line.split(",")
        if len(cells) != len(ref_cells):
            return False, worst, f"row {row}: {len(cells)} cells, reference has {len(ref_cells)}"
        for col, (cell, ref) in enumerate(zip(cells, ref_cells)):
            try:
                x, y = float(cell), float(ref)
            except ValueError:
                if cell != ref:
                    return False, worst, f"row {row} column {want[0].split(',')[col]}: {cell!r} != {ref!r}"
                continue
            dev = 0.0 if x == y else abs(x - y)
            if not dev <= tol:
                return False, dev, f"row {row} column {want[0].split(',')[col]}: {cell} vs {ref}"
            worst = max(worst, dev)
    return True, worst, ""


def ed_gap(output: str) -> float:
    """max |C - C_ed| over the rows of the largest ring in an oracle-compare output."""
    header, *rows = data_lines(output)
    columns = header.split(",")
    n_col, c_col, ced_col = columns.index("n"), columns.index("C"), columns.index("C_ed")
    table = [row.split(",") for row in rows]
    largest = max(int(r[n_col]) for r in table)
    return max(abs(float(r[c_col]) - float(r[ced_col])) for r in table if int(r[n_col]) == largest)


# --- processes -----------------------------------------------------------------

def child_env() -> dict:
    """Environment of every request: the checkout's src first, one BLAS thread.

    One thread keeps a request on one CPU, as the calibration kernel is, so
    that the kernel tracks the speed the request saw; it also leaves the other
    CPU of a small machine to the rest of the system.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update((var, "1") for var in THREAD_VARS)
    return env


def spawn(args: list, env: dict) -> dict:
    """Run bench/request.py with args; its last stdout line is a JSON report."""
    spawned = time.monotonic()
    args = [a if a != "SPAWNED" else repr(spawned) for a in args]
    proc = subprocess.run([sys.executable, str(BENCH / "request.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"request.py {' '.join(args[:1])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def machine(env: dict, probe: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": probe["python"],
        "numpy": probe["numpy"],
        "scipy": probe["scipy"],
        "blas": probe["blas"],
        "threads": {var: env[var] for var in THREAD_VARS},
    }


# --- metrics -------------------------------------------------------------------

# Per-layer metric -> (span name, field of tracer.summarize); see bench/README.md.
LAYER_SPANS = {
    "lattice.grid_arrays.calls": ("lattice.grid_arrays", "calls"),
    "lattice.grid_arrays.self_s": ("lattice.grid_arrays", "self_s"),
    "correlations.contraction_table.calls": ("correlations.contraction_table", "calls"),
    "correlations.contraction_table.self_s": ("correlations.contraction_table", "self_s"),
    "correlations.magnetization_z.self_s": ("correlations.magnetization_z", "self_s"),
    "correlations.pfaffian.calls": ("correlations.pfaffian", "calls"),
    "correlations.pfaffian.self_s": ("correlations.pfaffian", "self_s"),
    "correlations.correlators.self_s": ("correlations.correlators", "self_s"),
    "dynamics.calls": ("dynamics", "calls"),
    "dynamics.self_s": ("dynamics", "self_s"),
    "entanglement.two_site_state.self_s": ("entanglement.two_site_state", "self_s"),
    "entanglement.concurrence.self_s": ("entanglement.concurrence", "self_s"),
    "entanglement.eof.self_s": ("entanglement.eof", "self_s"),
    "entanglement.invalid_states": ("entanglement.two_site_state", "failed"),
    "ed.build_hamiltonian.self_s": ("ed.build_hamiltonian", "self_s"),
    "ed.thermal_state.self_s": ("ed.thermal_state", "self_s"),
    "ed.quench_series.self_s": ("ed.quench_series", "self_s"),
    "ed.observables.self_s": ("ed.observables", "self_s"),
    "cli.pair_observables.calls": ("cli.pair_observables", "calls"),
    "cli.pair_observables.self_s": ("cli.pair_observables", "self_s"),
    "cli.doubled_n.calls": ("cli.doubled_n", "calls"),
    "cli.doubled_n.total_s": ("cli.doubled_n", "total_s"),
    "cli.run.self_s": ("cli.run", "self_s"),
    "cli.output_s": ("cli.main", "self_s"),
}


def layer_metrics(report: dict) -> dict:
    layers = report["layers"]
    out = {metric: layers.get(span, {}).get(field, 0) for metric, (span, field) in LAYER_SPANS.items()}
    lookups = report["contraction_table_hits"] + report["contraction_table_misses"]
    out["correlations.contraction_table.hit_ratio"] = (
        report["contraction_table_hits"] / lookups if lookups else 0.0)
    out["entanglement.clamps"] = report["clamps"]
    return out


E2E_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def spread(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4f}, q3 {q3:.4f}, min {min(values):.4f}, max {max(values):.4f}"


NOT_IDENTICAL = "output differs from the first request's bytes"


# --- the run -------------------------------------------------------------------

def request_problem(report: dict, output: str, first: str | None, reference: str):
    """Why a request failed, or None.  ``first`` is the first accepted output."""
    if report["exit"] != 0:
        return f"exit code {report['exit']}"
    if first is not None:
        return None if output == first else NOT_IDENTICAL
    ok, worst, where = compare(output, reference)
    print("check reference: " + (f"ok, max |deviation| {worst:.3g}" if ok else f"FAILED at {where}"))
    return None if ok else f"reference mismatch at {where}"


def closed_loop(argv: list, reference: str, seconds: int, trace_file, env: dict):
    """Requests one after another until ``seconds`` pass; with a trace file,
    every other request is traced.  Returns (requests sent, reports of the
    requests that ran, failures, first output that passed the reference check
    or None)."""
    sent, reports, failures, first = 0, [], [], None
    out_path = ROOT / argv[-1]
    needed = 1 if trace_file is None else 2  # a trace run needs a traced and a plain request
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or (len(reports) < needed and len(failures) < 3):
        traced = trace_file is not None and len(reports) % 2 == 0
        sent += 1
        out_path.unlink(missing_ok=True)
        try:
            report = spawn(["run", "SPAWNED", str(trace_file) if traced else "-", "--", *argv], env)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            failures.append(f"request {sent}: {exc}")
            continue
        report["traced"] = traced
        reports.append(report)
        output = out_path.read_text() if out_path.exists() else ""
        problem = request_problem(report, output, first, reference)
        if problem:
            failures.append(f"request {sent}: {problem}")
        elif first is None:
            first = output
    return sent, reports, failures, first


def workers_match(argv: list, first: str, env: dict) -> bool:
    """The same request with --workers 2 gives the same data rows (untimed)."""
    pooled = argv[:-4] + ["--workers", "2", "--out", str(WORK / "workers2.csv")]
    try:
        report = spawn(["run", "SPAWNED", "-", "--", *pooled], env)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"workers 2 request failed: {exc}")
        return False
    return report["exit"] == 0 and data_lines((ROOT / pooled[-1]).read_text()) == data_lines(first)


def end_to_end(reports: list, env: dict, samples_file: Path) -> dict:
    timed = reports[1:] or reports  # the first request warms the machine up
    setups = [r["setup_s"] for r in timed]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(["setup", "SPAWNED"], env)["setup_s"])
    samples = {"wall_run_s": [r["run_s"] for r in timed], "calib_s": [r["calib_s"] for r in timed],
               "setup_s": setups, "peak_rss_mb": [r["peak_rss_mb"] for r in timed]}
    # The speed of this shared machine drifts by tens of percent between runs.
    # The kernel that runs right after each request, in its process, tracks
    # that speed; scaling each request by it gives seconds at the reference
    # speed, calibrate.REFERENCE_S per kernel run.
    samples["run_s"] = [calibrate.REFERENCE_S * run_s / calib_s
                        for run_s, calib_s in zip(samples["wall_run_s"], samples["calib_s"])]
    (ROOT / samples_file).write_text(json.dumps(samples))
    metrics = {}
    for name, values in samples.items():
        metrics[name] = statistics.median(values)
        print(f"{name} {metrics[name]:.4f} {E2E_UNITS.get(name, 's')} (median; {spread(values)})")
    return {name: metrics[name] for name in E2E_UNITS}


def per_layer(reports: list) -> dict:
    traced = [r for r in reports if r["traced"]]
    plain = [r for r in reports if not r["traced"]]
    per_request = [layer_metrics(r) for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_request) for name in per_request[0]}
    traced_run = statistics.median(r["run_s"] for r in traced)
    plain_run = statistics.median(r["run_s"] for r in plain)
    # Adjacent traced/plain pairs see the same machine speed, so their
    # differences cancel drift that the two medians would keep.
    metrics["trace_overhead_s"] = statistics.median(
        t["run_s"] - p["run_s"] for t, p in zip(traced, plain))
    self_sum = statistics.median(sum(row["self_s"] for row in r["layers"].values()) for r in traced)
    print(f"traced run_s {traced_run:.4f} s ({len(traced)} requests), sum of span self times "
          f"{self_sum:.4f} s, untraced run_s {plain_run:.4f} s ({len(plain)} requests)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    return metrics


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = child_env()
    (ROOT / WORK).mkdir(parents=True, exist_ok=True)
    argv = workload_argv(workload, seed) + ["--workers", "1", "--out", str(WORK / f"{workload}.csv")]
    reference = gzip.decompress(reference_path(workload, seed).read_bytes()).decode()
    print(f"workload {workload}, seed {seed} (field set {seed % VARIANTS}, reference "
          f"{reference_path(workload, seed).name}), {seconds} s closed loop, 1 client, "
          f"trace {int(trace)}")
    print("request: xy-quench " + " ".join(argv))

    # Untimed: imports once (fills __pycache__ and the page cache), reports the
    # stack and the README-surface rejections.
    probe = spawn(["probe"], env)
    if not Path(probe["xyquench_file"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"xyquench imported from {probe['xyquench_file']}, not {ROOT / 'src'}")
    print("machine: " + json.dumps(machine(env, probe)))

    trace_file = WORK / f"{workload}-spans.json" if trace else None
    attempted, reports, failures, first = closed_loop(argv, reference, seconds, trace_file, env)
    if len({r["traced"] for r in reports}) < (2 if trace else 1):
        raise RuntimeError("no request ran: " + "; ".join(failures[:3]))
    print(f"check rerun byte-identical: {len(reports) - 1} reruns, "
          f"{sum(NOT_IDENTICAL in f for f in failures)} differ")
    if workload == "surface":
        attempted += 1
        same = first is not None and workers_match(argv, first, env)
        print(f"check workers 2 vs 1 data rows: {'ok' if same else 'FAILED'}")
        if not same:
            failures.append("workers 2 data rows differ from workers 1")
    for failure in failures:
        print("FAILED " + failure)

    rejected = probe["rejected"]
    print(f"rejected_points {len(rejected)} count (README surface, {probe['rejected_grid']}, "
          "not timed)" + "".join(f"\n  (a, b) = ({r['a']!r}, {r['b']!r}): InvalidStateError: "
                                 f"{r['error']}" for r in rejected))
    if workload == "oracle" and first is not None:
        print(f"ed_gap {ed_gap(first):.6f} abs (max |C - C_ed| at the largest n)")
    print(f"failed_share {len(failures) / attempted:.4f} ratio ({len(failures)} of {attempted})")

    metrics = (per_layer(reports) if trace
               else end_to_end(reports, env, WORK / f"{workload}-samples.json"))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": E2E_UNITS.get(name) or unit_of(name)}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "xyquench" / "cli.py").is_file():
        print(f"error: no xyquench sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
