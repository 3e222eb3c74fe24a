"""Outside-in span tracer for one xy-quench request.

Spans are recorded around calls into the public functions of each xyquench
module by rebinding those names from outside; nothing under ``src/`` knows
about the tracer.  Modules import functions by name (``from .lattice import
grid_arrays``), so a function is rebound in every ``xyquench`` namespace that
holds it, which is where the caller looks it up.

A span is ``[name, parent, point, start, end, failed]``; ``parent`` is the
index of the enclosing span (-1 for the root) and ``point`` is the index of the
enclosing per-point span, so all spans of one evaluated point share it.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# Spans that evaluate one (config, d, t) point; their descendants share an id.
POINT_SPANS = ("cli.pair_observables", "cli.doubled_n")

# (module, public function, span name).  Several functions may share a span
# name when the benchmark reports them as one layer.
TARGETS = (
    ("xyquench.lattice", "grid_arrays", "lattice.grid_arrays"),
    ("xyquench.correlations", "contraction_table", "correlations.contraction_table"),
    ("xyquench.correlations", "magnetization_z", "correlations.magnetization_z"),
    ("xyquench.correlations", "pfaffian", "correlations.pfaffian"),
    ("xyquench.correlations", "correlator_xx", "correlations.correlators"),
    ("xyquench.correlations", "correlator_yy", "correlations.correlators"),
    ("xyquench.correlations", "correlator_zz", "correlations.correlators"),
    ("xyquench.entanglement", "two_site_state", "entanglement.two_site_state"),
    ("xyquench.entanglement", "concurrence_x", "entanglement.concurrence"),
    ("xyquench.entanglement", "concurrence_general", "entanglement.concurrence"),
    ("xyquench.entanglement", "entanglement_of_formation", "entanglement.eof"),
    ("xyquench.ed", "build_hamiltonian", "ed.build_hamiltonian"),
    ("xyquench.ed", "thermal_state", "ed.thermal_state"),
    ("xyquench.ed", "quench_series", "ed.quench_series"),
    ("xyquench.ed", "pair_correlators", "ed.observables"),
    ("xyquench.ed", "magnetization", "ed.observables"),
    ("xyquench.ed", "reduce_pair", "ed.observables"),
)


class Tracer:
    """Keeps every span of one request in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn):
        """fn with a span named ``name`` around each call."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            point = index if name in POINT_SPANS else (spans[parent][2] if parent >= 0 else -1)
            span = [name, parent, point, clock(), None, False]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                stack.pop()
                span[4] = clock()

        return traced


def summarize(spans) -> dict:
    """Per span name: calls, failed calls, total and self seconds."""
    child_time = [0.0] * len(spans)
    for name, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for (name, _, _, start, end, failed), children in zip(spans, child_time):
        row = out.setdefault(name, {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["failed"] += failed
        row["total_s"] += end - start
        row["self_s"] += end - start - children
    return out


def _rebind(original, replacement):
    """Point every xyquench name bound to ``original`` at ``replacement``."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "xyquench" and not mod_name.startswith("xyquench."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def instrument(tracer: Tracer, n_sites: int):
    """Trace the public layer functions; returns a callable that undoes it.

    ``n_sites`` is the request's ring size: ``pair_observables`` calls at twice
    that size are the doubled-N convergence check and get their own span name.
    """
    cli = importlib.import_module("xyquench.cli")
    dynamics = importlib.import_module("xyquench.dynamics")
    undo = []
    for mod_name, attr, span in TARGETS:
        original = getattr(importlib.import_module(mod_name), attr)
        undo += _rebind(original, tracer.wrap(span, original))
    for attr, fn in vars(dynamics).items():
        if inspect.isfunction(fn) and fn.__module__ == dynamics.__name__ and not attr.startswith("_"):
            undo += _rebind(fn, tracer.wrap("dynamics", fn))

    pair_observables = cli.pair_observables
    at_n = tracer.wrap("cli.pair_observables", pair_observables)
    at_2n = tracer.wrap("cli.doubled_n", pair_observables)

    def routed(config, d, t):
        return (at_2n if config.n_sites == 2 * n_sites else at_n)(config, d, t)

    undo += _rebind(pair_observables, routed)
    runners = cli._RUNNERS
    for command, runner in list(runners.items()):
        runners[command] = tracer.wrap("cli.run", runner)
        undo.append((runners, command, runner))

    def restore():
        for target, key, value in reversed(undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    return restore
