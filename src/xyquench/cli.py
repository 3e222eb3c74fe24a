"""Command-line driver: time series, quench surfaces, equilibrium sweeps, oracle checks.

    xy-quench timeseries      observables of one site pair on a time grid
    xy-quench surface         asymptotic concurrence over an (a, b) field grid
    xy-quench equilibrium     static observables swept over a = b = h
    xy-quench oracle-compare  pipeline vs exact diagonalization on small rings

Each takes only the flags it reads (FLAGS), which --help lists; the README's
"Command line" section describes them, the config file and the exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .correlations import CHUNK_ELEMENTS, correlator_xx, correlator_yy, correlator_zz, factor_scope, magnetization_z
from .ed import quench_series
from .entanglement import concurrence_general, entanglement_of_formation, x_concurrences
from .errors import InvalidStateError, NumericalError, at_point
from .lattice import ChainConfig

# The RunSpec fields each subcommand reads: its flags (--n-sites for
# n_sites), its config-file keys and its metadata lines.
_COMMON = "gamma kt offset format out workers config"
FLAGS = {
    "timeseries": f"{_COMMON} n_sites field_a field_b t_start t_end t_steps time_average".split(),
    "surface": f"{_COMMON} n_sites grid_min grid_max grid_steps".split(),
    "equilibrium": f"{_COMMON} n_sites grid_min grid_max grid_steps".split(),
    "oracle-compare": f"{_COMMON} field_a field_b t_start t_end t_steps n_list".split(),
}

# Tolerance of the doubled-size self-check run after surface/timeseries.
CONVERGENCE_TOL = 1e-4
CONVERGENCE_SAMPLES = 5
AVERAGE_SAMPLES = 200


@dataclass(frozen=True)
class RunSpec:
    """Fully resolved run description (flags + config file + defaults)."""

    command: str
    n_sites: int = 2000
    gamma: float = 1.0
    kt: float = 0.0
    field_a: float = 1.0
    field_b: float = 1.0
    offset: int = 1
    t_start: float = 0.0
    t_end: float = 20.0
    t_steps: int = 201
    grid_min: float = 0.0
    grid_max: float = 3.0
    grid_steps: int = 31
    format: str = "csv"
    out: str | None = None
    workers: int = 1
    time_average: float | None = None
    n_list: tuple = (6, 8, 10)
    config: str | None = None

    def validate(self):
        for f in fields(self):  # kt = inf is the infinite-temperature state
            value = getattr(self, f.name)
            if isinstance(value, float) and (math.isnan(value) or math.isinf(value) and f.name != "kt"):
                need = "a number" if f.name == "kt" else "finite"
                raise ValueError(f"--{f.name.replace('_', '-')} must be {need}, got {value}")
        if self.offset not in (1, 2, 3):
            raise ValueError(f"--offset must be 1, 2 or 3, got {self.offset}")
        if self.t_start < 0 or self.t_end < self.t_start:
            raise ValueError(f"bad time window [{self.t_start}, {self.t_end}]")
        if self.t_steps < 1:
            raise ValueError(f"--t-steps must be >= 1, got {self.t_steps}")
        if self.command == "surface" and self.grid_steps < 2:
            raise ValueError(f"surface needs --grid-steps >= 2, got {self.grid_steps}")
        if self.grid_steps < 1:
            raise ValueError(f"--grid-steps must be >= 1, got {self.grid_steps}")
        if self.grid_max < self.grid_min:
            raise ValueError(f"bad field grid [{self.grid_min}, {self.grid_max}]")
        if self.format not in ("csv", "json"):
            raise ValueError(f"--format must be csv or json, got {self.format!r}")
        if self.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {self.workers}")
        if self.time_average is not None and self.time_average <= 0:
            raise ValueError(f"--time-average must be positive, got {self.time_average}")
        if not self.n_list:
            raise ValueError("--n-list must not be empty")
        if any(m >= n for m, n in zip(self.n_list, self.n_list[1:])):
            raise ValueError(f"--n-list must be strictly increasing, got {','.join(map(str, self.n_list))}")
        for n in self.n_list:
            if not 4 <= n <= 12 or n % 2:
                raise ValueError(f"--n-list entries must be even and in 4..12, got {n}")
        # Past half the ring the long-way string is wrong on the paper grid,
        # though (0, d) and (0, N - d) are one pair distance.
        ring = min(self.n_list) if self.command == "oracle-compare" else self.n_sites
        if 2 * self.offset > ring:
            raise ValueError(f"--offset must be at most half the ring size {ring}, got {self.offset}")


def pair_observables(config: ChainConfig, d: int, t: float):
    """(M_z, S^x, S^y, S^z, C, EoF) of the pair (l, l+d) at time t (inf allowed).

    A NumericalError keeps its type and gains the point it happened at.  The
    point is a run of its own: no factors are shared with earlier calls.
    """
    return _evaluate([config], d, [t])[0]


def _evaluate(configs: list, d: int, times: list) -> list:
    """pair_observables at every point (configs of one ring size), in point order.

    Gamma, the three strings and M_z run once per chunk of
    CHUNK_ELEMENTS // (2d + 2)^2 points (2,500 at d = 1; 625 at d = 3, six
    chunks for a 61 x 61 surface), so a chunk's Gamma holds at most
    CHUNK_ELEMENTS complex entries.  The call is one factor_scope.  The
    two-site state and its concurrence are taken over the chunk's arrays
    (x_concurrences), which stop at the first non-physical point; its index
    locates it.  EoF runs per point.
    """
    size = max(1, CHUNK_ELEMENTS // (2 * d + 2) ** 2)
    rows = []
    with factor_scope():
        for i in range(0, len(configs), size):
            chunk, at = configs[i : i + size], times[i : i + size]
            sx = correlator_xx(chunk, d, at)
            sy = correlator_yy(chunk, d, at)
            sz = correlator_zz(chunk, d, at)
            mz = magnetization_z(chunk, at)
            try:
                c = x_concurrences(mz, sx, sy, sz).tolist()
            except InvalidStateError as exc:
                raise at_point(exc, chunk[exc.index], d, at[exc.index]) from exc
            rows += zip(mz.tolist(), sx.tolist(), sy.tolist(), sz.tolist(), c,
                        [entanglement_of_formation(x) if x else 0.0 for x in c])
    return rows


def _chain(spec: RunSpec, a: float, b: float, n_sites: int | None = None) -> ChainConfig:
    return ChainConfig(n_sites or spec.n_sites, spec.gamma, spec.kt, a, b)


def run_timeseries(spec: RunSpec):
    columns = ["t", "M_z", "S^x", "S^y", "S^z", "C", "EoF"]
    config = _chain(spec, spec.field_a, spec.field_b)
    times = [float(t) for t in np.linspace(spec.t_start, spec.t_end, spec.t_steps)]
    window = []
    if spec.time_average is not None:
        window = [float(t) for t in np.linspace(spec.time_average, 2.0 * spec.time_average,
                                                AVERAGE_SAMPLES)]
    points = times + [math.inf] + window
    configs = [config] * len(points)
    values = _evaluate(configs, spec.offset, points)
    rows = [[t] + list(vals) for t, vals in zip(times + [math.inf], values)]
    if window:
        rows.append(["avg"] + list(np.mean(np.asarray(values[len(times) + 1 :]), axis=0)))
    # Samples spread over the whole grid, ends included: a finite ring departs late, not early.
    samples = np.linspace(0, len(times) - 1, min(CONVERGENCE_SAMPLES, len(times))).round().astype(int)
    _convergence_check(spec, configs, points, values, samples)
    return columns, rows, 0


def run_surface(spec: RunSpec):
    columns = ["a", "b", "C", "EoF"]
    grid = np.linspace(spec.grid_min, spec.grid_max, spec.grid_steps)
    configs = [_chain(spec, float(a), float(b)) for a in grid for b in grid]
    times = [math.inf] * len(configs)
    values = _evaluate(configs, spec.offset, times)
    rows = [
        [cfg.field_before, cfg.field_after, vals[4], vals[5]]
        for cfg, vals in zip(configs, values)
    ]
    # Samples: indices ia of a and ib of b, each spread evenly over the grid with
    # its ends; pairing the k-th a with the (k + 3 mod 5)-th b keeps them off the
    # unquenched diagonal a = b, and only a 2-step grid needs the step to the next b.
    size = len(grid)
    ia = np.linspace(0, size - 1, CONVERGENCE_SAMPLES).round().astype(int)
    ib = np.roll(ia, 2)
    ib = np.where(ib == ia, (ia + 1) % size, ib)
    _convergence_check(spec, configs, times, values, ia * size + ib)
    return columns, rows, 0


def run_equilibrium(spec: RunSpec):
    columns = ["h", "M_z", "S^x", "S^y", "S^z", "C", "EoF"]
    grid = np.linspace(spec.grid_min, spec.grid_max, spec.grid_steps)
    configs = [_chain(spec, float(h), float(h)) for h in grid]
    values = _evaluate(configs, spec.offset, [0.0] * len(configs))
    rows = [[cfg.field_before] + list(vals) for cfg, vals in zip(configs, values)]
    return columns, rows, 0


def run_oracle_compare(spec: RunSpec):
    columns = ["n", "t", "M_z", "M_z_ed", "S^x", "S^x_ed", "S^y", "S^y_ed",
               "S^z", "S^z_ed", "C", "C_ed"]
    times = [float(t) for t in np.linspace(spec.t_start, spec.t_end, spec.t_steps)]
    rows = []
    worst = []
    for n in spec.n_list:
        config = _chain(spec, spec.field_a, spec.field_b, n_sites=n)
        oracle = quench_series(n, spec.gamma, spec.kt, spec.field_a, spec.field_b,
                               times, d=spec.offset)
        values = _evaluate([config] * len(times), spec.offset, times)
        err = 0.0
        for t, (mz, sx, sy, sz, c, _), (mz_ed, sx_ed, sy_ed, sz_ed, rho_pair) in zip(
                times, values, oracle):
            c_ed = concurrence_general(rho_pair)
            rows.append([n, t, mz, mz_ed, sx, sx_ed, sy, sy_ed, sz, sz_ed, c, c_ed])
            err = max(err, abs(c - c_ed))
        worst.append(err)
        print(f"n={n}: max |C - C_ed| = {err:.6f}", file=sys.stderr)
    # A size whose routes agree exactly (error 0.0) cannot improve on that.
    ok = all(nxt == 0.0 or prev > nxt for prev, nxt in zip(worst, worst[1:]))
    if not ok:
        print("oracle error schedule is not strictly decreasing with n", file=sys.stderr)
    return columns, rows, 0 if ok else 3


def _convergence_check(spec: RunSpec, configs, times, values, samples):
    """Evaluate the run's points at the indices samples again at doubled N; warn if C moved."""
    doubled = _evaluate([replace(configs[i], n_sites=2 * spec.n_sites) for i in samples],
                        spec.offset, [times[i] for i in samples])
    worst = max(abs(values[i][4] - y[4]) for i, y in zip(samples, doubled))
    if worst > CONVERGENCE_TOL:
        print(
            f"warning: concurrence shifts by {worst:.2e} when N doubles from "
            f"{spec.n_sites}; consider a larger --n-sites",
            file=sys.stderr,
        )


def _cell(value):
    """A row value as JSON writes it: infinity as its CSV text, anything else as it is."""
    return "inf" if value == math.inf else value


def _write_output(spec: RunSpec, columns, rows):
    """The command and each field it reads (config only when given), then the rows."""
    meta = [("command", spec.command)]
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.name in FLAGS[spec.command] and not (f.name == "config" and value is None):
            if f.name == "n_list":
                value = ",".join(str(n) for n in value)
            meta.append((f.name.replace("_", "-"), "none" if value is None else value))
    with open(spec.out, "w") if spec.out else contextlib.nullcontext(sys.stdout) as fh:
        if spec.format == "csv":  # str of a float is its round-trip repr, and of math.inf "inf"
            fh.writelines(f"# {key} = {value}\n" for key, value in meta)
            fh.write(",".join(columns) + "\n")
            fh.writelines(",".join(map(str, row)) + "\n" for row in rows)
        else:
            json.dump({"meta": dict(meta, columns=columns), "rows": [[_cell(v) for v in row] for row in rows]},
                      fh, indent=1)
            fh.write("\n")


# --- argument handling -------------------------------------------------------


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated even ring sizes in 4..12, such as 6,8,10; got {text!r}") from None


def _load_config_file(path: str, keys) -> dict:
    """Flat ``key = value`` file; keys match the long flag names sans dashes."""
    aliases = {key.replace("_", ""): key for key in keys}
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, val = line.partition("=")
            norm = key.strip().lower().replace("-", "").replace("_", "")
            if norm not in aliases:
                raise ValueError(f"{path}:{lineno}: unknown key {key.strip()!r}")
            values[aliases[norm]] = val.strip()
    return values


def build_spec(argv=None) -> RunSpec:
    """Flags beat the config file, which beats the defaults.

    Each subcommand takes the flags of FLAGS.  The file's values become the
    subcommand's defaults, so argparse converts them with the flags' own types.
    A bad flag exits 2 through argparse (main returns 1); a bad setting raises ValueError.
    """
    # Flag types, where the field's default does not show it.
    types = {"out": str, "time_average": float, "n_list": _int_list, "config": str}
    helps = {"workers": "accepted for compatibility; has no effect, runs are one process"}
    parser = argparse.ArgumentParser(prog="xy-quench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, read in FLAGS.items():
        p = sub.add_parser(name)
        for f in fields(RunSpec):
            if f.name in read:
                p.add_argument("--" + f.name.replace("_", "-"),
                               type=types.get(f.name, type(f.default)), help=helps.get(f.name))
        if name == "oracle-compare":
            p.set_defaults(t_end=5.0, t_steps=6)
    args = parser.parse_args(argv)
    if args.config:
        keys = set(vars(args)) - {"command", "config"}
        sub.choices[args.command].set_defaults(**_load_config_file(args.config, keys))
        args = parser.parse_args(argv)
    spec = RunSpec(**{key: value for key, value in vars(args).items() if value is not None})
    spec.validate()
    return spec


_RUNNERS = {
    "timeseries": run_timeseries,
    "surface": run_surface,
    "equilibrium": run_equilibrium,
    "oracle-compare": run_oracle_compare,
}


def main(argv=None) -> int:
    try:
        spec = build_spec(argv)
        columns, rows, code = _RUNNERS[spec.command](spec)
        _write_output(spec, columns, rows)
        return code
    except SystemExit as exc:  # argparse: 0 after --help, 2 on bad input
        return 1 if exc.code else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
