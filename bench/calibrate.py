"""A fixed reference kernel that measures how fast the machine is right now.

On a shared host the speed of a single-threaded process drifts by tens of
percent over seconds to minutes.  Each request runs this kernel right after
``cli.main`` returns, in the same process, and ``bench/run.py`` scales the
request's wall time by ``REFERENCE_S / kernel time``.  The kernel is
benchmark code, so a change to the program does not move it.

The kernel is a few dense symmetric eigensolves.  In a trial on every
workload, this tracked the speed of single requests more closely than a mix of
vectorised mode sums, 6×6 determinants and eigensolves: a few long LAPACK
calls vary less from run to run than many short numpy calls.
"""

import time

import numpy as np

# Median kernel time on a 2-vCPU Intel Xeon VM (CPython 3.11, numpy 2.4,
# OpenBLAS 0.3.31, one BLAS thread).  Scaled times read in seconds of that machine.
REFERENCE_S = 0.3

_SIZE = 512
_DENSE = np.random.default_rng(0).standard_normal((_SIZE, _SIZE))
_DENSE = _DENSE + _DENSE.T


def kernel() -> float:
    """Run the fixed work once; returns a value so the work cannot be skipped."""
    return sum(float(np.linalg.eigh(_DENSE + k * np.eye(_SIZE))[0][-1]) for k in range(6))


def measure() -> float:
    """Wall time of one kernel run, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
