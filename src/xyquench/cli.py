"""Command-line driver: time series, quench surfaces, equilibrium sweeps, oracle checks.

Four subcommands share one flag set:

    xy-quench timeseries      observables of one site pair on a time grid
    xy-quench surface         asymptotic concurrence over an (a, b) field grid
    xy-quench equilibrium     static observables swept over a = b = h
    xy-quench oracle-compare  pipeline vs exact diagonalization on small rings

Values may also come from a flat ``key = value`` config file (--config);
explicit flags win over the file, the file wins over defaults, and the
effective configuration is echoed into the output metadata.  Exit codes:
0 success, 1 invalid input, 2 numerical failure, 3 oracle schedule violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .correlations import correlator_xx, correlator_yy, correlator_zz, magnetization_z
from .ed import quench_series
from .entanglement import concurrence_general, concurrence_x, entanglement_of_formation, two_site_state
from .errors import NumericalError
from .lattice import ChainConfig

COMMANDS = ("timeseries", "surface", "equilibrium", "oracle-compare")

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
    fmt: str = "csv"
    out: str | None = None
    workers: int = 1
    time_average: float | None = None
    n_list: tuple = (6, 8, 10)
    config_path: str | None = None

    def validate(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.n_sites < 4 or self.n_sites % 2:
            raise ValueError(f"--n-sites must be even and >= 4, got {self.n_sites}")
        if self.kt < 0:
            raise ValueError(f"--kt must be non-negative, got {self.kt}")
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
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"--format must be csv or json, got {self.fmt!r}")
        if self.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {self.workers}")
        if self.time_average is not None and self.time_average <= 0:
            raise ValueError(f"--time-average must be positive, got {self.time_average}")
        if not self.n_list:
            raise ValueError("--n-list must not be empty")
        for n in self.n_list:
            if not 4 <= n <= 12 or n % 2:
                raise ValueError(f"--n-list entries must be even and in 4..12, got {n}")


def pair_observables(config: ChainConfig, d: int, t: float):
    """(M_z, S^x, S^y, S^z, C, EoF) of the pair (l, l+d) at time t (inf allowed).

    A NumericalError keeps its type and gains the point it happened at.
    """
    try:
        mz = magnetization_z(config, t)
        sx = correlator_xx(config, d, t)
        sy = correlator_yy(config, d, t)
        sz = correlator_zz(config, d, t)
        c = concurrence_x(two_site_state(mz, sx, sy, sz))
    except NumericalError as exc:
        raise type(exc)(
            f"{exc} (at N = {config.n_sites}, kT = {config.kt}, a = {config.field_before}, "
            f"b = {config.field_after}, d = {d}, t = {t})"
        ) from exc
    return mz, sx, sy, sz, c, entanglement_of_formation(c)


def _timeseries_point(args):
    config, d, t = args
    return pair_observables(config, d, t)


def _surface_point(args):
    config, d = args
    return pair_observables(config, d, math.inf)


def _parallel_map(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    chunk = max(1, len(items) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


def _chain(spec: RunSpec, a: float, b: float, n_sites: int | None = None) -> ChainConfig:
    return ChainConfig(
        n_sites=n_sites or spec.n_sites,
        gamma=spec.gamma,
        kt=spec.kt,
        field_before=a,
        field_after=b,
    )


def run_timeseries(spec: RunSpec):
    columns = ["t", "M_z", "S^x", "S^y", "S^z", "C", "EoF"]
    config = _chain(spec, spec.field_a, spec.field_b)
    times = np.linspace(spec.t_start, spec.t_end, spec.t_steps)
    points = [(config, spec.offset, float(t)) for t in times]
    values = _parallel_map(_timeseries_point, points, spec.workers)
    rows = [[t] + list(vals) for (_, _, t), vals in zip(points, values)]
    rows.append([math.inf] + list(pair_observables(config, spec.offset, math.inf)))
    if spec.time_average is not None:
        window = np.linspace(spec.time_average, 2.0 * spec.time_average, AVERAGE_SAMPLES)
        sampled = _parallel_map(
            _timeseries_point, [(config, spec.offset, float(t)) for t in window], spec.workers
        )
        rows.append(["avg"] + list(np.mean(np.asarray(sampled), axis=0)))
    _convergence_check(spec, [(spec.field_a, spec.field_b, float(t)) for t in times])
    return columns, rows, 0


def run_surface(spec: RunSpec):
    columns = ["a", "b", "C", "EoF"]
    grid = np.linspace(spec.grid_min, spec.grid_max, spec.grid_steps)
    points = [(_chain(spec, float(a), float(b)), spec.offset) for a in grid for b in grid]
    values = _parallel_map(_surface_point, points, spec.workers)
    rows = [
        [cfg.field_before, cfg.field_after, vals[4], vals[5]]
        for (cfg, _), vals in zip(points, values)
    ]
    samples = [
        (float(grid[i % len(grid)]), float(grid[(i * 7) % len(grid)]), math.inf)
        for i in range(CONVERGENCE_SAMPLES)
    ]
    _convergence_check(spec, samples)
    return columns, rows, 0


def run_equilibrium(spec: RunSpec):
    columns = ["h", "M_z", "S^x", "S^y", "S^z", "C", "EoF"]
    grid = np.linspace(spec.grid_min, spec.grid_max, spec.grid_steps)
    points = [(_chain(spec, float(h), float(h)), spec.offset, 0.0) for h in grid]
    values = _parallel_map(_timeseries_point, points, spec.workers)
    rows = [[cfg.field_before] + list(vals) for (cfg, _, _), vals in zip(points, values)]
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
        err = 0.0
        for t, (mz_ed, sx_ed, sy_ed, sz_ed, rho_pair) in zip(times, oracle):
            mz, sx, sy, sz, c, _ = pair_observables(config, spec.offset, t)
            c_ed = concurrence_general(rho_pair)
            rows.append([n, t, mz, mz_ed, sx, sx_ed, sy, sy_ed, sz, sz_ed, c, c_ed])
            err = max(err, abs(c - c_ed))
        worst.append(err)
        print(f"n={n}: max |C - C_ed| = {err:.6f}", file=sys.stderr)
    ok = all(worst[i] > worst[i + 1] for i in range(len(worst) - 1))
    if not ok:
        print("oracle error schedule is not strictly decreasing with n", file=sys.stderr)
    return columns, rows, 0 if ok else 3


def _convergence_check(spec: RunSpec, samples):
    """Recompute C at doubled N on a few sampled points; warn if it moved."""
    worst = 0.0
    for a, b, t in samples[:CONVERGENCE_SAMPLES]:
        base = pair_observables(_chain(spec, a, b), spec.offset, t)[4]
        doubled = pair_observables(_chain(spec, a, b, n_sites=2 * spec.n_sites), spec.offset, t)[4]
        worst = max(worst, abs(base - doubled))
    if worst > CONVERGENCE_TOL:
        print(
            f"warning: concurrence shifts by {worst:.2e} when N doubles from "
            f"{spec.n_sites}; consider a larger --n-sites",
            file=sys.stderr,
        )


def _meta_items(spec: RunSpec, columns):
    items = [("command", spec.command)]
    skip = {"command", "config_path"}
    for f in fields(spec):
        if f.name in skip:
            continue
        value = getattr(spec, f.name)
        if f.name == "n_list":
            value = ",".join(str(n) for n in value)
        key = {"fmt": "format"}.get(f.name, f.name.replace("_", "-"))
        items.append((key, "none" if value is None else value))
    if spec.config_path:
        items.append(("config", spec.config_path))
    items.append(("columns", columns))
    return items


def _cell(value):
    """A row value as written: labels and infinity as text, ints and floats as
    numbers (CSV writes their str, which for a float is its round-trip repr)."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    value = float(value)
    return "inf" if math.isinf(value) else value


def _write_csv(fh, spec, columns, rows):
    for key, value in _meta_items(spec, columns):
        if key == "columns":
            continue
        fh.write(f"# {key} = {value}\n")
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(str(_cell(v)) for v in row) + "\n")


def _write_json(fh, spec, columns, rows):
    meta = {k: v for k, v in _meta_items(spec, columns)}
    json.dump({"meta": meta, "rows": [[_cell(v) for v in row] for row in rows]}, fh, indent=1)
    fh.write("\n")


def _write_output(spec: RunSpec, columns, rows):
    writer = _write_csv if spec.fmt == "csv" else _write_json
    if spec.out:
        with open(spec.out, "w") as fh:
            writer(fh, spec, columns, rows)
    else:
        writer(sys.stdout, spec, columns, rows)


# --- argument handling -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that exits with code 1 on bad input instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_list(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _build_parser() -> tuple[_Parser, dict]:
    """The parser and its subcommand parsers by name."""
    parser = _Parser(prog="xy-quench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--n-sites", type=int)
        p.add_argument("--gamma", type=float)
        p.add_argument("--kt", type=float)
        p.add_argument("--field-a", type=float)
        p.add_argument("--field-b", type=float)
        p.add_argument("--offset", type=int)
        p.add_argument("--t-start", type=float)
        p.add_argument("--t-end", type=float)
        p.add_argument("--t-steps", type=int)
        p.add_argument("--grid-min", type=float)
        p.add_argument("--grid-max", type=float)
        p.add_argument("--grid-steps", type=int)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"))
        p.add_argument("--out")
        p.add_argument("--workers", type=int)
        p.add_argument("--time-average", type=float)
        p.add_argument("--config")
        if name == "oracle-compare":
            p.add_argument("--n-list", type=_int_list)
            p.set_defaults(t_end=5.0, t_steps=6)
    return parser, sub.choices


def _load_config_file(path: str, keys) -> dict:
    """Flat ``key = value`` file; keys match the long flag names sans dashes."""
    aliases = {key.replace("_", ""): key for key in keys}
    aliases["format"] = "fmt"
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

    The file's values become the subcommand's defaults, so argparse converts
    them with the flags' own types.
    """
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        keys = set(vars(args)) - {"command", "config"}
        commands[args.command].set_defaults(**_load_config_file(args.config, keys))
        args = parser.parse_args(argv)
    values = vars(args)
    values["config_path"] = values.pop("config")
    spec = RunSpec(**{key: value for key, value in values.items() if value is not None})
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
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        columns, rows, code = _RUNNERS[spec.command](spec)
        _write_output(spec, columns, rows)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
