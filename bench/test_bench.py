"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import gzip
import json
import math
import statistics

import pytest

import calibrate
import run
from tracer import POINT_SPANS, Tracer, instrument, summarize

FIELD_FLAGS = ("--field-a", "--field-b", "--grid-min", "--grid-max")


def _reference(workload, seed=0):
    return gzip.decompress(run.reference_path(workload, seed).read_bytes()).decode()


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    left = tracer.wrap("left", leaf)
    right = tracer.wrap("right", leaf)
    root = tracer.wrap("root", lambda: (left(), right()))
    root()  # root 0..10 { left 1..4 { leaf 2..3 }, right 5..9 { leaf 6..8 } }
    summary = summarize(tracer.spans)
    assert {name: row["self_s"] for name, row in summary.items()} == {
        "root": 3.0, "left": 2.0, "right": 2.0, "leaf": 3.0}
    assert summary["leaf"]["calls"] == 2
    assert summary["root"]["total_s"] == sum(row["self_s"] for row in summary.values())


def test_spans_of_one_point_share_its_id_and_failures_count():
    tracer = Tracer()

    def boom():
        raise ValueError("rejected")

    inner = tracer.wrap("inner", boom)
    point = tracer.wrap(POINT_SPANS[0], inner)
    with pytest.raises(ValueError):
        point()
    outer, nested = tracer.spans
    assert outer[2] == nested[2] == 0 and nested[1] == 0
    assert summarize(tracer.spans)["inner"]["failed"] == 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_changes_field_values_only(workload):
    def work_size(argv):
        return [arg for i, arg in enumerate(argv)
                if arg not in FIELD_FLAGS and argv[i - 1] not in FIELD_FLAGS]

    argvs = [run.workload_argv(workload, seed) for seed in range(2 * run.VARIANTS)]
    assert argvs == [run.workload_argv(workload, seed) for seed in range(2 * run.VARIANTS)]
    assert all(work_size(argv) == work_size(argvs[0]) for argv in argvs)
    assert len({tuple(argv) for argv in argvs}) == run.VARIANTS
    assert "--workers" not in argvs[0] and "--out" not in argvs[0]
    assert all(run.reference_path(workload, seed).is_file() for seed in range(run.VARIANTS))


def test_gate_fails_on_perturbed_reference():
    reference = _reference("timeseries")
    assert run.compare(reference, reference) == (True, 0.0, "")
    lines = reference.splitlines()
    row = lines[400].split(",")
    column = lines[0].split(",").index("C")
    for shift, ok in ((5e-14, True), (2e-13, False)):
        cells = row.copy()
        cells[column] = repr(float(cells[column]) + shift)
        perturbed = "\n".join(lines[:400] + [",".join(cells)] + lines[401:])
        assert run.compare(reference, perturbed)[0] is ok
    assert not run.compare("\n".join(lines[:-1]), reference)[0]
    assert not run.compare(reference.replace("avg", "mean"), reference)[0]


def test_ed_gap_of_the_canonical_oracle_request():
    assert round(run.ed_gap(_reference("oracle")), 4) == 0.0670


def test_instrument_traces_the_names_callers_look_up():
    cli = pytest.importorskip("xyquench.cli")
    correlations = pytest.importorskip("xyquench.correlations")
    from xyquench.lattice import ChainConfig

    before = (cli.pair_observables, cli.correlator_xx, correlations.grid_arrays,
              correlations.contraction_table, cli._RUNNERS["surface"])
    tracer = Tracer()
    restore = instrument(tracer, n_sites=8)
    try:
        cli.pair_observables(ChainConfig(8, 1.0, 0.5, 0.3, 1.7), 1, math.inf)
        cli.pair_observables(ChainConfig(16, 1.0, 0.5, 0.3, 1.7), 1, math.inf)
    finally:
        restore()
    assert before == (cli.pair_observables, cli.correlator_xx, correlations.grid_arrays,
                      correlations.contraction_table, cli._RUNNERS["surface"])
    summary = summarize(tracer.spans)
    assert summary["cli.pair_observables"]["calls"] == 1
    assert summary["cli.doubled_n"]["calls"] == 1
    assert summary["correlations.correlators"]["calls"] == 6
    assert summary["correlations.contraction_table"]["calls"] == 6
    assert summary["correlations.pfaffian"]["calls"] == 6
    assert summary["lattice.grid_arrays"]["calls"] == 2
    assert "dynamics" not in summary


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.E2E_UNITS.values())
    report = {"layers": {}, "contraction_table_hits": 0, "contraction_table_misses": 0, "clamps": 0}
    printed = list(run.layer_metrics(report)) + ["trace_overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == printed
    assert [m["unit"] for m in spec["per_layer"]] == [run.unit_of(name) for name in printed]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_s_is_the_median_of_speed_scaled_requests(tmp_path):
    # A warm-up request, then requests whose wall time doubles with their
    # kernel time (the machine at half speed): each reads 10 kernel runs.
    walls = [(9.0, 0.1)] + [(3.0, 0.3), (6.0, 0.6)] * (run.SETUP_SAMPLES // 2)
    reports = [{"run_s": r, "calib_s": c, "setup_s": 0.5 * i, "peak_rss_mb": 80.0 + i}
               for i, (r, c) in enumerate(walls)]
    metrics = run.end_to_end(reports, {}, tmp_path / "samples.json")
    timed = range(1, len(walls))
    assert metrics == {"run_s": pytest.approx(10 * calibrate.REFERENCE_S),
                       "setup_s": statistics.median(0.5 * i for i in timed),
                       "peak_rss_mb": statistics.median(80.0 + i for i in timed)}
    samples = json.loads((tmp_path / "samples.json").read_text())
    assert samples["wall_run_s"] == [r for r, _ in walls[1:]]
