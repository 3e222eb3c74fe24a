"""Argument merging, output formats, exit codes, and the physics the CLI exposes."""

import json
import math

import numpy as np
import pytest

from xyquench.cli import RunSpec, _cell, build_spec, main, pair_observables
from xyquench.lattice import ChainConfig

QUENCH = ("--field-a", "1.001", "--field-b", "0.5", "--kt", "0.5")
TINY = ("--n-sites", "8", "--t-steps", "3", "--t-end", "1.0")


def _run(tmp_path, *argv, fmt="csv"):
    out = tmp_path / f"out.{fmt}"
    code = main([*argv, "--format", fmt, "--out", str(out)])
    return code, out.read_text()


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# ------------------------------------------------------------ spec building


def test_spec_defaults():
    spec = build_spec(["timeseries"])
    assert spec == RunSpec(command="timeseries")


def test_oracle_compare_has_shorter_default_grid():
    spec = build_spec(["oracle-compare"])
    assert (spec.t_end, spec.t_steps) == (5.0, 6)
    assert spec.n_list == (6, 8, 10)


def test_config_file_between_flags_and_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "n-sites = 8\n"
        "field_a = 2.0   # trailing comment\n"
        "format = json\n"
        "\n"
    )
    spec = build_spec(["timeseries", "--config", str(cfg), "--field-a", "0.5"])
    assert spec.n_sites == 8  # file beats default
    assert spec.field_a == 0.5  # flag beats file
    assert spec.fmt == "json"
    assert spec.gamma == 1.0  # untouched default
    assert spec.config_path == str(cfg)


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-sights = 8\n")
    assert main(["timeseries", "--config", str(cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_config_file_rejects_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-sites 8\n")
    assert main(["timeseries", "--config", str(cfg)]) == 1
    assert ":1:" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path):
    assert main(["timeseries", "--config", str(tmp_path / "nope.cfg")]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["timeseries", "--n-sites", "7"],
        ["timeseries", "--n-sites", "2"],
        ["timeseries", "--kt", "-1"],
        ["timeseries", "--offset", "4"],
        ["timeseries", "--t-start", "5", "--t-end", "1"],
        ["timeseries", "--t-steps", "0"],
        ["surface", "--grid-steps", "1"],
        ["surface", "--grid-min", "2", "--grid-max", "1"],
        ["timeseries", "--workers", "0"],
        ["timeseries", "--time-average", "-3"],
        ["oracle-compare", "--n-list", "14"],
        ["oracle-compare", "--n-list", "7"],
        ["oracle-compare", "--n-list", ""],
    ],
)
def test_invalid_values_exit_one(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err


def test_unknown_command_and_flag_exit_one(capsys):
    assert main(["melt"]) == 1
    assert main(["timeseries", "--bogus", "1"]) == 1
    capsys.readouterr()


def test_cell_rendering():
    assert _cell("avg") == "avg"
    assert str(_cell(3)) == "3"
    assert _cell(math.inf) == "inf"
    assert float(_cell(0.1)) == 0.1
    assert float(_cell(1.0 / 3.0)) == 1.0 / 3.0


# ---------------------------------------------------------------- runners


def test_timeseries_csv_layout(tmp_path):
    code, text = _run(
        tmp_path, "timeseries", *TINY, *QUENCH, "--time-average", "5.0"
    )
    assert code == 0
    meta = dict(
        ln[2:].split(" = ", 1) for ln in text.splitlines() if ln.startswith("# ")
    )
    assert meta["command"] == "timeseries"
    assert meta["n-sites"] == "8"
    assert meta["time-average"] == "5.0"
    header, rows = _csv_rows(text)
    assert header == ["t", "M_z", "S^x", "S^y", "S^z", "C", "EoF"]
    assert [r[0] for r in rows] == ["0.0", "0.5", "1.0", "inf", "avg"]
    config = ChainConfig(8, 1.0, 0.5, 1.001, 0.5)
    expected = pair_observables(config, 1, 0.5)
    assert [float(v) for v in rows[1][1:]] == list(expected)


def test_timeseries_warns_when_unconverged(tmp_path, capsys):
    code = main(["timeseries", *TINY, *QUENCH, "--out", str(tmp_path / "o.csv")])
    assert code == 0
    assert "when N doubles" in capsys.readouterr().err


def test_timeseries_without_quench_is_constant(tmp_path):
    code, text = _run(
        tmp_path, "timeseries", "--n-sites", "64", "--t-steps", "5",
        "--field-a", "1.2", "--field-b", "1.2", "--kt", "0.3",
    )
    assert code == 0
    _, rows = _csv_rows(text)
    ref = [float(v) for v in rows[0][1:]]
    for row in rows[1:]:
        assert [float(v) for v in row[1:]] == pytest.approx(ref, abs=1e-10)


def test_timeseries_reruns_are_byte_identical(tmp_path):
    args = ("timeseries", *TINY, *QUENCH)
    _, first = _run(tmp_path, *args)
    _, second = _run(tmp_path, *args)
    assert first == second


def test_surface_json_layout_and_worker_independence(tmp_path):
    args = (
        "surface", "--n-sites", "32", "--kt", "0.5", "--grid-steps", "2",
        "--grid-min", "0.5", "--grid-max", "1.5",
    )
    code, text1 = _run(tmp_path, *args, "--workers", "1", fmt="json")
    assert code == 0
    doc = json.loads(text1)
    assert doc["meta"]["command"] == "surface"
    assert doc["meta"]["grid-steps"] == 2
    assert doc["meta"]["columns"] == ["a", "b", "C", "EoF"]
    rows = doc["rows"]
    assert [(r[0], r[1]) for r in rows] == [(0.5, 0.5), (0.5, 1.5), (1.5, 0.5), (1.5, 1.5)]
    code, text2 = _run(tmp_path, *args, "--workers", "2", fmt="json")
    assert code == 0
    assert json.loads(text2)["rows"] == rows  # worker count must not leak in


def test_equilibrium_sweeps_the_field(tmp_path):
    # h = 1.5 at kT = 0.4 is barely inside X positivity in the large-N limit;
    # small rings overshoot it and are rejected, so this needs a real ring.
    code, text = _run(
        tmp_path, "equilibrium", "--n-sites", "200", "--kt", "0.4",
        "--grid-min", "0.5", "--grid-max", "2.5", "--grid-steps", "3",
    )
    assert code == 0
    header, rows = _csv_rows(text)
    assert header[0] == "h"
    assert [float(r[0]) for r in rows] == [0.5, 1.5, 2.5]


def test_oracle_compare_reports_and_passes(tmp_path, capsys):
    out = tmp_path / "o.csv"
    code = main([
        "oracle-compare", *QUENCH, "--n-list", "6,8", "--t-end", "2.0",
        "--t-steps", "3", "--out", str(out),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "n=6: max |C - C_ed| = " in err and "n=8" in err
    header, rows = _csv_rows(out.read_text())
    assert header == ["n", "t", "M_z", "M_z_ed", "S^x", "S^x_ed",
                      "S^y", "S^y_ed", "S^z", "S^z_ed", "C", "C_ed"]
    assert len(rows) == 6
    assert {r[0] for r in rows} == {"6", "8"}


def test_positivity_violation_exits_two(capsys):
    # The small-ring equilibrium state at this point is outside X positivity;
    # the run must flag it, not clamp it.
    code = main(["oracle-compare", "--field-a", "1.37", "--field-b", "1.37",
                 "--kt", "0", "--n-list", "6"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_numerical_failure_names_its_point(capsys):
    # The README surface at kT = 0 has one non-physical state, at its (0, 0)
    # corner; the paired-mode grid is its cause.
    code = main(["surface", "--kt", "0", "--grid-min", "0", "--grid-max", "3",
                 "--grid-steps", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "N = 2000, kT = 0.0, a = 0.0, b = 0.0, d = 1, t = inf" in err


def test_flat_error_schedule_exits_three(capsys):
    # At infinite temperature every observable is exactly zero for all n, so
    # the oracle error cannot strictly decrease.
    code = main(["oracle-compare", "--kt", "1000000", "--n-list", "4,6",
                 "--t-steps", "2", "--t-end", "1.0"])
    assert code == 3
    assert "not strictly decreasing" in capsys.readouterr().err


# ------------------------------------------------------------ physics knobs


def _late_time_amplitude(kt: float) -> float:
    config = ChainConfig(300, 1.0, kt, 1.001, 0.5)
    values = [pair_observables(config, 1, t)[4] for t in np.linspace(5.0, 20.0, 31)]
    return max(values) - min(values)


def test_heating_damps_concurrence_oscillations():
    assert _late_time_amplitude(1.0) + 0.01 < _late_time_amplitude(0.5)


def _asymptotic_vs_equilibrium_gaps(a, b, kt, n=1000):
    quenched = pair_observables(ChainConfig(n, 1.0, kt, a, b), 1, math.inf)
    settled = pair_observables(ChainConfig(n, 1.0, kt, b, b), 1, 0.0)
    return [abs(q - s) for q, s in zip(quenched, settled)]


def test_long_time_state_remembers_initial_field():
    gaps = _asymptotic_vs_equilibrium_gaps(0.5, 5.0, 0.0)
    assert min(gaps[:4]) > 0.005  # every correlator keeps memory
    assert gaps[4] > 0.005  # and so does the concurrence


def test_long_time_memory_at_weak_quench():
    # Even a barely-critical quench never relaxes to the thermal pair state,
    # though here the memory lives in the correlators: the concurrence alone
    # happens to land within 6e-4 of its equilibrium value.
    gaps = _asymptotic_vs_equilibrium_gaps(1.001, 0.5, 0.5)
    assert max(gaps[:4]) > 0.005
    assert gaps[4] < 0.005
