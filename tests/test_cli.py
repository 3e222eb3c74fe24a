"""Argument merging, output formats, exit codes, and the physics the CLI exposes."""

import functools
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from xyquench import cli, correlations
from xyquench.cli import RunSpec, _cell, _evaluate, build_spec, main, pair_observables
from xyquench.errors import InvalidStateError, NumericalError
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
    assert spec.format == "json"
    assert spec.gamma == 1.0  # untouched default
    assert spec.config == str(cfg)


# The flags each subcommand reads besides --gamma --kt --offset --format --out
# --workers --config, and a small run of it.
FLAG_SETS = {
    "timeseries": ("n-sites field-a field-b t-start t-end t-steps time-average",
                   ["--n-sites", "8", "--t-steps", "2", "--t-end", "1.0"]),
    "surface": ("n-sites grid-min grid-max grid-steps",
                ["--n-sites", "32", "--grid-steps", "2", "--grid-min", "0.5", "--grid-max", "1.5"]),
    "equilibrium": ("n-sites grid-min grid-max grid-steps",
                    ["--n-sites", "32", "--grid-steps", "2", "--grid-min", "0.5", "--grid-max", "1.5"]),
    "oracle-compare": ("field-a field-b t-start t-end t-steps n-list",
                       [*QUENCH, "--n-list", "6,8", "--t-end", "2.0", "--t-steps", "3"]),
}


@pytest.mark.parametrize("command, unread", [
    ("surface", "field-a"), ("equilibrium", "t-end"), ("timeseries", "grid-steps"),
    ("oracle-compare", "n-sites"),
])
def test_subcommands_take_and_echo_only_their_flags(tmp_path, capsys, command, unread):
    flags, argv = FLAG_SETS[command]
    assert main([command, f"--{unread}", "2"]) == 1
    assert f"unrecognized arguments: --{unread}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{unread} = 2\n")  # another subcommand's key
    assert main([command, "--config", str(cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err
    cfg.write_text("kt = 0.5\n")
    out = tmp_path / "o.json"
    assert main([command, *argv, "--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
    meta = json.loads(out.read_text())["meta"]
    assert meta["kt"] == 0.5
    common = "gamma kt offset format out workers config".split()
    assert sorted(meta) == sorted(["command", "columns", *common, *flags.split()])


def test_readme_command_lines_parse(tmp_path, capsys):
    # Every example of the README's command-line section is a valid request
    # and runs as the README says: surface and equilibrium exit 2, each naming
    # its non-physical point a = b = 0.
    section = (Path(__file__).parents[1] / "README.md").read_text().split("## Command line", 1)[1]
    examples, config = re.findall(r"```\n(.*?)```", section, re.S)[:2]
    commands = [line.split()[1:] for line in examples.splitlines() if line.startswith("xy-quench ")]
    assert [argv[0] for argv in commands] == list(FLAG_SETS)
    for argv in commands:
        build_spec(argv)
    codes = []
    for argv in commands:
        capsys.readouterr()
        codes.append(main([*argv, "--out", str(tmp_path / f"{argv[0]}.csv")]))
        if codes[-1] == 2:
            assert "a = 0.0, b = 0.0, d = 1" in capsys.readouterr().err
    assert codes == [0, 2, 2, 0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert build_spec(["timeseries", "--config", str(cfg)]).config == str(cfg)


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


def test_config_file_format_is_validated(tmp_path, capsys):
    # --format has no argparse choices; RunSpec.validate rejects a file's value.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = xml\n")
    assert main(["timeseries", "--config", str(cfg)]) == 1
    assert "--format must be csv or json, got 'xml'" in capsys.readouterr().err


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
        ["oracle-compare", "--n-list", "8,6"],
        ["oracle-compare", "--n-list", "6,6"],
        ["timeseries", "--kt", "nan"],
        ["timeseries", "--field-a", "nan"],
        ["timeseries", "--gamma", "nan"],
        ["timeseries", "--field-b", "inf"],
        ["timeseries", "--t-end", "inf"],
        ["timeseries", "--time-average", "nan"],
        ["surface", "--grid-min", "nan"],
        ["surface", "--grid-max", "-inf"],
        ["oracle-compare", "--t-start", "nan"],
    ],
)
def test_invalid_values_exit_one(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err


def test_non_finite_values_name_their_flag_and_kt_may_be_infinite(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("field-b = nan\n")
    assert main(["timeseries", "--config", str(cfg)]) == 1
    assert "--field-b must be finite, got nan" in capsys.readouterr().err
    assert main(["timeseries", "--kt", "nan"]) == 1
    assert "--kt must be a number, got nan" in capsys.readouterr().err
    out = tmp_path / "o.csv"
    assert main(["timeseries", "--kt", "inf", "--n-sites", "20", "--t-steps", "3", "--out", str(out)]) == 0


@pytest.mark.parametrize("route", ["flag", "config"])
def test_bad_n_list_says_what_the_flag_takes(route, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-list = 6,x\n")
    argv = ["--n-list", "6,x"] if route == "flag" else ["--config", str(cfg)]
    assert main(["oracle-compare", *argv]) == 1
    err = capsys.readouterr().err
    assert "argument --n-list: expected comma-separated even ring sizes in 4..12, such as 6,8,10" in err
    assert "_int_list" not in err


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
    # The alarm's value is max |C(2N) - C(N)| over the first 5 times.
    shift = max(abs(pair_observables(ChainConfig(16, 1.0, 0.5, 1.001, 0.5), 1, t)[4]
                    - pair_observables(ChainConfig(8, 1.0, 0.5, 1.001, 0.5), 1, t)[4])
                for t in np.linspace(0.0, 1.0, 3)[:5])
    assert f"concurrence shifts by {shift:.2e} when N doubles" in capsys.readouterr().err


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
    assert "exceeds sqrt(rho11 rho44) = 2.499998e-01 by 2.5e-07" in err


def test_injected_failure_names_its_first_point(monkeypatch, capsys, tmp_path):
    # A physical run, with S^z set to 0.5 (so rho22 = 1/4 - S^z = -1/4) at two
    # points: the first in the second chunk, the second in a later one.  The
    # trigger does not depend on any defect of the momentum grid.
    argv = ["surface", "--n-sites", "2000", "--kt", "0.5", "--grid-min", "0.5",
            "--grid-max", "1.5", "--grid-steps", "9", "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    grid = np.linspace(0.5, 1.5, 9)
    points = [(float(a), float(b)) for a in grid for b in grid]
    size = cli.CHUNK_ELEMENTS // 1000
    first = size + 7
    bad = {points[first], points[2 * size]}

    def injected(configs, d, times, _zz=cli.correlator_zz):
        hit = [(c.field_before, c.field_after) in bad for c in configs]
        return np.where(hit, 0.5, _zz(configs, d, times))

    monkeypatch.setattr(cli, "correlator_zz", injected)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "numerical failure: rho22 = -2.500000e-01 is negative beyond 1e-10" in err
    a, b = points[first]
    assert f"(at N = 2000, kT = 0.5, a = {a}, b = {b}, d = 1, t = inf)" in err


def _inject_zz(monkeypatch, bad):
    """Set S^z = 0.5 (so rho22 = -1/4) at the points whose time is in bad."""
    def injected(configs, d, times, _zz=cli.correlator_zz):
        return np.where(np.isin(times, bad), 0.5, _zz(configs, d, times))

    monkeypatch.setattr(cli, "correlator_zz", injected)


def test_injected_failure_in_oracle_compare_names_its_point(monkeypatch, capsys, tmp_path):
    # A physical oracle-compare run, broken at t = 3 of every ring: the first
    # ring, n = 6, is the one named, after its ED series ran.
    argv = ["oracle-compare", *QUENCH, "--n-list", "6,8", "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 0
    _inject_zz(monkeypatch, [3.0])
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "numerical failure: rho22 = -2.500000e-01 is negative beyond 1e-10" in err
    assert "(at N = 6, kT = 0.5, a = 1.001, b = 0.5, d = 1, t = 3.0)" in err


@pytest.mark.parametrize("chunk", [0, 2])
def test_injected_failure_mid_chunk_names_its_first_point(monkeypatch, chunk):
    # Physical dephased points at kT = 0.5 with two finite-time points broken
    # by injection, the first mid-chunk and the second later in that chunk.
    size = cli.CHUNK_ELEMENTS // 1000
    first_bad = chunk * size + size // 3
    fields = [(0.5 + 0.1 * (i % 9), 0.6 + 0.1 * (i % 7)) for i in range(3 * size)]
    times = [math.inf] * len(fields)
    times[first_bad], times[first_bad + size // 3] = 1.5, 2.5
    configs = [ChainConfig(2000, 1.0, 0.5, a, b) for a, b in fields]
    _evaluate(configs, 1, times)
    _inject_zz(monkeypatch, [1.5, 2.5])
    with pytest.raises(InvalidStateError) as info:
        _evaluate(configs, 1, times)
    a, b = fields[first_bad]
    assert str(info.value).endswith(f"(at N = 2000, kT = 0.5, a = {a}, b = {b}, d = 1, t = 1.5)")


@pytest.mark.parametrize("batch", [False, True])
def test_imaginary_residue_names_its_point(monkeypatch, batch):
    # +-1e-6 i on the antisymmetric pair (1, 2), (2, 1) of one point's Gamma:
    # the d = 1 S^x string is Gamma[1, 2] alone, so its residue is 2.5e-7.
    table = correlations.contraction_table

    def skewed(config, t, d):
        gamma = table(config, t, d).copy()
        stack = gamma if gamma.ndim == 3 else gamma[None]
        hit = np.flatnonzero(np.atleast_1d(t) == 1.25)
        stack[hit, 1, 2] += 1e-6j
        stack[hit, 2, 1] -= 1e-6j
        return gamma

    monkeypatch.setattr(correlations, "contraction_table", skewed)
    times = [0.5, 1.0, 1.25, 2.0] if batch else [1.25]
    configs = [ChainConfig(16, 1.0, 0.5, 1.001, 0.5 + 0.1 * i) for i in range(len(times))]
    if not batch:
        with pytest.raises(NumericalError, match=r"residue 2\.500e-07 .*t = 1\.25\)$"):
            correlations.correlator_xx(configs[0], 1, 1.25)
    with pytest.raises(NumericalError) as info:
        _evaluate(configs, 1, times)
    b = configs[times.index(1.25)].field_after
    assert str(info.value) == ("correlator imaginary residue 2.500e-07 exceeds 1e-10 "
                               f"(at N = 16, kT = 0.5, a = 1.001, b = {b}, d = 1, t = 1.25)")


def _oracle_errors(tmp_path, monkeypatch, capsys, kt, c_ed):
    """Exit code and stderr of oracle-compare at n = 4, 6 with two times each,
    the ED concurrences replaced by c_ed (in call order) when given."""
    if c_ed is not None:
        values = iter(c_ed)
        monkeypatch.setattr(cli, "concurrence_general", lambda rho: next(values))
    capsys.readouterr()
    code = main(["oracle-compare", "--kt", kt, "--n-list", "4,6", "--t-steps", "2",
                 "--t-end", "1.0", "--out", str(tmp_path / "o.csv")])
    return code, capsys.readouterr().err


def test_flat_error_schedule_exits_three(tmp_path, monkeypatch, capsys):
    # At a high temperature the pipeline's C is exactly zero for all n; an ED
    # concurrence of 1/4 at every point makes the error 0.25 at both sizes,
    # which does not strictly decrease.
    code, err = _oracle_errors(tmp_path, monkeypatch, capsys, "1000000", [0.25] * 4)
    assert code == 3
    assert "not strictly decreasing" in err


@pytest.mark.parametrize("kt", ["1000000", "inf"])
def test_exact_agreement_satisfies_the_schedule(tmp_path, monkeypatch, capsys, kt):
    # Both states are (nearly) maximally mixed, so C = C_ed = 0 exactly at
    # both sizes: an error of 0.0 cannot decrease further and passes.
    code, err = _oracle_errors(tmp_path, monkeypatch, capsys, kt, None)
    assert code == 0
    assert "n=4: max |C - C_ed| = 0.000000" in err and "n=6: max |C - C_ed| = 0.000000" in err


def test_error_after_exact_agreement_exits_three(tmp_path, monkeypatch, capsys):
    # Exact agreement at n = 4, then an error of 0.25 at n = 6.
    code, err = _oracle_errors(tmp_path, monkeypatch, capsys, "inf", [0.0, 0.0, 0.25, 0.25])
    assert code == 3
    assert "n=6: max |C - C_ed| = 0.250000" in err and "not strictly decreasing" in err


def test_overflowing_time_is_a_located_failure(tmp_path, capsys):
    # Past 2 t max Lambda_b = 2^33 one ulp of the phase exceeds 1e-6 rad, so
    # its sines keep no digits (C read 0, 0 and 0.0265 at t = 1e17 and its next
    # two floats), and at t = 1e308 the phase overflows.  Either time is
    # invalid input, named before any numpy warning; t = 1e9 still runs.
    for t, code in (("1e17", 1), ("1e308", 1), ("1e9", 0)):
        assert main(["timeseries", "--n-sites", "8", "--field-a", "1.5", "--field-b", "0.5",
                     "--t-start", t, "--t-end", t, "--t-steps", "1",
                     "--out", str(tmp_path / "t.csv")]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith(f"error: time {float(t)} is too large: its phase 2 t max "
                                  "Lambda_b is past 2^33")


# ------------------------------------------------------- batched evaluation


def _mixed_points(rng, n=64):
    """Points at kT = 0 and kT > 0, with the degenerate a = b = 1 modes, at t = 0, a random t and inf."""
    configs = [ChainConfig(n, 1.0, 0.0, 1.0, 1.0), ChainConfig(n, 1.0, 0.4, 1.0, 1.0),
               ChainConfig(n, 0.8, 0.0, 0.6, 1.4), ChainConfig(n, 1.0, 0.5, 1.001, 0.5),
               ChainConfig(n, 1.2, 0.2, 1.5, 1.0)]
    points = [(c, t) for c in configs for t in (0.0, float(rng.uniform(0, 20)), math.inf)]
    points += [points[i] for i in rng.permutation(len(points))]  # configs out of order too
    return [c for c, _ in points], [t for _, t in points]


def test_batched_observables_equal_one_point_calls():
    configs, times = _mixed_points(np.random.default_rng(20))
    for d in (1, 2, 3):
        batched = np.array(_evaluate(configs, d, times))
        single = np.array([pair_observables(c, d, t) for c, t in zip(configs, times)])
        assert np.max(np.abs(batched - single)) <= 1e-13


def test_chunk_size_does_not_move_rows(monkeypatch):
    configs, times = _mixed_points(np.random.default_rng(21))
    rows = {}
    for budget in (1, 100, 10**9):
        monkeypatch.setattr(cli, "CHUNK_ELEMENTS", budget)
        rows[budget] = np.array(_evaluate(configs, 2, times))
    assert np.max(np.abs(rows[1] - rows[10**9])) <= 1e-13
    assert np.max(np.abs(rows[100] - rows[10**9])) <= 1e-13


def test_pair_observables_builds_the_grid_once_per_call(monkeypatch):
    # Factors of an earlier call must neither be reused nor skew the count:
    # each call is one run, with one momentum grid per ring size.
    calls = Counter()

    def counted(config, _fn=correlations.grid_arrays):
        calls[config.n_sites] += 1
        return _fn(config)

    monkeypatch.setattr(correlations, "grid_arrays", counted)
    config = ChainConfig(8, 1.0, 0.5, 0.3, 1.7)
    correlations.correlator_xx(config, 1, 2.0)
    calls.clear()
    for expected in (1, 2):
        pair_observables(config, 1, math.inf)
        assert calls == {8: expected}
    pair_observables(ChainConfig(16, 1.0, 0.5, 0.3, 1.7), 1, math.inf)
    assert calls == {8: 2, 16: 1}


def test_surface_forms_one_dispersion_row_per_field(monkeypatch, tmp_path):
    # The a and b of a k x k surface take the same k fields: one Lambda(h)
    # row each at N, shared by all chunks of the run (81 points, 3 chunks).
    rows = Counter()

    def counted(n_sites, gamma, h, _fn=correlations._dispersion.__wrapped__):
        rows[n_sites] += 1
        return _fn(n_sites, gamma, h)

    cached = functools.lru_cache(maxsize=None)(counted)
    caches = tuple(cached if c is correlations._dispersion else c for c in correlations._FACTOR_CACHES)
    monkeypatch.setattr(correlations, "_FACTOR_CACHES", caches)
    monkeypatch.setattr(correlations, "_dispersion", cached)
    code, _ = _run(tmp_path, "surface", "--n-sites", "2000", "--kt", "0.5", "--grid-steps", "9",
                   "--grid-min", "0.5", "--grid-max", "2.5")
    assert code == 0
    assert rows[2000] == 9


@pytest.mark.parametrize("chunk", [0, 2])
def test_first_invalid_point_of_a_batch_is_named(chunk):
    # (a, b) = (0, 0) is non-physical at N = 2000 and kT = 0 for every t.  The
    # first such point sits mid-chunk and a second one later in that chunk.
    size = cli.CHUNK_ELEMENTS // 1000
    first_bad = chunk * size + size // 3
    fields = [(0.1 * (i % 9), 0.2 + 0.1 * (i % 7)) for i in range(3 * size)]
    times = [math.inf] * len(fields)
    fields[first_bad], times[first_bad] = (0.0, 0.0), 1.5
    fields[first_bad + size // 3] = (0.0, 0.0)
    configs = [ChainConfig(2000, 1.0, 0.0, a, b) for a, b in fields]
    with pytest.raises(InvalidStateError) as info:
        _evaluate(configs, 1, times)
    assert str(info.value).endswith("(at N = 2000, kT = 0.0, a = 0.0, b = 0.0, d = 1, t = 1.5)")


# 5 points per chunk at N = 32 and 2 at N = 64.  The surface's 16 points take
# 4 chunks and the time series' 10 (9 times and inf) take 2; the doubled-N
# check reuses the run's rows at N and adds 3 chunks at N = 64 for its 5
# samples.  oracle-compare takes each ring's 3 times as one chunk.
@pytest.mark.parametrize("argv, chunks", [
    (["surface", "--n-sites", "32", "--grid-steps", "4", "--grid-min", "0.5", "--grid-max", "1.5"],
     4 + 3),
    (["timeseries", "--n-sites", "32", "--t-steps", "9", *QUENCH], 2 + 3),
    (["oracle-compare", *QUENCH, "--n-list", "6,8", "--t-end", "2.0", "--t-steps", "3"], 2),
])
def test_runs_evaluate_per_chunk_not_per_point(monkeypatch, tmp_path, argv, chunks):
    # Each chunk makes one call per correlator to the Pfaffian and to the
    # contraction table; a fall-back to per-point evaluation multiplies them.
    calls = Counter()
    for name in ("pfaffian", "contraction_table"):
        def counted(*args, _fn=getattr(correlations, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(correlations, name, counted)
    monkeypatch.setattr(cli, "CHUNK_ELEMENTS", 80)
    assert main([*argv, "--kt", "0.5", "--out", str(tmp_path / "o.csv")]) == 0
    assert calls == {"pfaffian": 3 * chunks, "contraction_table": 3 * chunks}


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
