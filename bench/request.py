"""One benchmark request: a fresh process that runs ``xyquench.cli.main``.

    python3 bench/request.py run SPAWNED TRACE_FILE -- <xy-quench argv>
    python3 bench/request.py setup SPAWNED
    python3 bench/request.py probe

``run`` measures set-up (process spawn, taken by the caller as
``time.monotonic()`` just before starting this process, until
``xyquench.cli`` is imported), the wall time of ``cli.main(argv)``, the peak
RSS and then, untimed for the request, the machine's current speed as the wall
time of the fixed kernel in ``bench/calibrate.py``; ``setup`` measures only
the set-up.  With a TRACE_FILE other than
``-``, ``run`` also traces the layers, writes the raw spans there and adds the
per-layer summary.  ``probe`` reports the library versions and the points of
the README surface that raise ``InvalidStateError``.  Each mode prints one
JSON object as its last line.
"""

import json
import resource
import sys
import time


def _run(spawned: float, trace_file: str, argv: list) -> dict:
    import xyquench.cli as cli

    setup_s = time.monotonic() - spawned
    import calibrate  # after the set-up clock stops: it is benchmark code

    main, restore, tracer, clamps = cli.main, None, None, 0
    if trace_file != "-":
        import xyquench.correlations as correlations
        import xyquench.entanglement as entanglement
        from tracer import Tracer, instrument

        tracer = Tracer()
        restore = instrument(tracer, cli.build_spec(argv).n_sites)
        main = tracer.wrap("cli.main", cli.main)
        clamps = entanglement.clamp_warnings
    start = time.perf_counter()
    code = main(argv)
    run_s = time.perf_counter() - start
    out = {
        "exit": code,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calib_s": calibrate.measure(),
    }
    if tracer is not None:
        from tracer import summarize

        restore()
        info = correlations.contraction_table.cache_info()
        out["layers"] = summarize(tracer.spans)
        out["contraction_table_hits"] = info.hits
        out["contraction_table_misses"] = info.misses
        out["clamps"] = entanglement.clamp_warnings - clamps
        with open(trace_file, "w") as fh:
            json.dump({"columns": ["name", "parent", "point", "start", "end", "failed"],
                       "spans": tracer.spans}, fh)
    return out


def _probe() -> dict:
    """Versions of the stack, and the rejected points of the README surface."""
    import math

    import numpy as np
    import scipy

    import xyquench
    import xyquench.cli as cli
    from xyquench.errors import InvalidStateError
    from xyquench.lattice import ChainConfig

    # README example: surface --kt 0 --grid-min 0 --grid-max 3 --grid-steps 31
    spec = cli.build_spec(["surface", "--kt", "0", "--grid-min", "0", "--grid-max", "3",
                           "--grid-steps", "31"])
    grid = np.linspace(spec.grid_min, spec.grid_max, spec.grid_steps)
    rejected = []
    for a in grid:
        for b in grid:
            config = ChainConfig(spec.n_sites, spec.gamma, spec.kt, float(a), float(b))
            try:
                cli.pair_observables(config, spec.offset, math.inf)
            except InvalidStateError as exc:
                rejected.append({"a": float(a), "b": float(b), "error": str(exc)})
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "xyquench_file": xyquench.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "rejected_grid": f"kt={spec.kt} offset={spec.offset} n-sites={spec.n_sites} "
                         f"{spec.grid_steps}x{spec.grid_steps} on [{spec.grid_min}, {spec.grid_max}]",
        "rejected": rejected,
    }


def main(args: list) -> int:
    if args[:1] == ["run"] and len(args) >= 4 and args[3] == "--":
        result = _run(float(args[1]), args[2], args[4:])
    elif args[:1] == ["setup"] and len(args) == 2:
        import xyquench.cli  # noqa: F401

        result = {"setup_s": time.monotonic() - float(args[1])}
    elif args == ["probe"]:
        result = _probe()
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
