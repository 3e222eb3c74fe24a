"""Exact-diagonalization oracle for small rings, in the two parity sectors.

    H = -(1+gamma)/2 sum sx_i sx_{i+1} - (1-gamma)/2 sum sy_i sy_{i+1}
        - h sum sz_i              (periodic, coupling 1)

is real in the z basis and commutes with the parity prod_i sz_i, so basis
states of even and of odd popcount span two blocks that H never couples;
``quench_series`` traces each half-size block of the Gibbs state down to the
pair once, in H(b)'s eigenbasis, for all times, and skips a block with no
Gibbs weight.  No fermion mapping enters.
The mode pipeline agrees with this oracle only to O(1/N), so comparisons
tighten as N grows rather than hit machine precision.
The causes: the paired-mode grid, which is neither parity sector of the ring
(on the even-sector grid the two agree to rounding at kT = 0 where the ground
state is even); at kT > 0 the Gibbs state, which mixes both sectors; and for C
at finite t after a quench, the Im rho14 that the X-state assembly drops.
"""

from __future__ import annotations

import functools
import math

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Degenerate levels within this window share the kT = 0 ground-space weight.
GROUND_TOL = 1e-10


def _check_sites(n: int):
    if not 4 <= n <= 12:
        raise ValueError(f"ed oracle supports 4 <= n_sites <= 12, got {n}")


@functools.lru_cache(maxsize=None)
def _popcounts(n: int) -> np.ndarray:
    """Number of down spins (set bits) of each of the 2^n basis states; read-only."""
    states = np.arange(2**n)
    counts = sum((states >> bit) & 1 for bit in range(n))
    counts.flags.writeable = False
    return counts


def build_hamiltonian(n: int, gamma: float, h: float, parity=None) -> np.ndarray:
    """Dense real Hamiltonian of the ring at field h, on all 2^n states or one parity block.

    Site i is bit n-1-i of the basis index, a clear bit meaning sz = +1, so the
    diagonal is -h (n - 2 popcount).  Each bond flips its two bits, with
    amplitude -gamma when they are equal and -1 when they differ.  parity 0 or 1
    keeps the states of even or odd popcount, in increasing index order; a flip
    of two bits keeps the parity, so no entry of H leaves the block.
    """
    _check_sites(n)
    if parity not in (None, 0, 1):
        raise ValueError(f"parity must be None, 0 or 1, got {parity}")
    states = np.arange(2**n) if parity is None else np.flatnonzero(_popcounts(n) % 2 == parity)
    ham = np.diag(-h * (n - 2.0 * _popcounts(n)[states]))
    rows = np.arange(len(states))
    for i in range(n):
        j = (i + 1) % n
        equal = ((states >> i) & 1) == ((states >> j) & 1)
        ham[rows, np.searchsorted(states, states ^ (1 << i | 1 << j))] = np.where(equal, -gamma, -1.0)
    return ham


def _gibbs_weights(evals: np.ndarray, kt: float) -> np.ndarray:
    """exp(-(E - E_0)/kT)/Z, overflow-free at low kT; at kT = 0, even over E - E_0 < GROUND_TOL."""
    if not kt >= 0:  # NaN too; kT = inf is the maximally mixed state
        raise ValueError(f"kt must be non-negative, got {kt}")
    shifted = evals - evals.min()
    weights = (shifted < GROUND_TOL).astype(float) if kt == 0.0 else np.exp(-shifted / kt)
    return weights / weights.sum()


def thermal_state(ham: np.ndarray, kt: float) -> np.ndarray:
    """Gibbs state exp(-H/kT)/Z; kT = 0 gives the ground-space projector."""
    evals, vecs = np.linalg.eigh(ham)
    return (vecs * _gibbs_weights(evals, kt)) @ vecs.conj().T


def evolve(state: np.ndarray, ham_after: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) state exp(+i H t) through the spectral decomposition."""
    evals, vecs = np.linalg.eigh(ham_after)
    phase = np.exp(-1j * evals * t)
    rotated = vecs.conj().T @ state @ vecs
    return vecs @ (phase[:, None] * rotated * phase.conj()[None, :]) @ vecs.conj().T


def reduce_pair(state: np.ndarray, i: int, j: int) -> np.ndarray:
    """Two-site reduced density matrix for sites (i, j), site i as first factor."""
    dim = state.shape[0]
    n = int(round(math.log2(dim)))
    if 2**n != dim:
        raise ValueError(f"state dimension {dim} is not a power of two")
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"need two distinct sites in 0..{n - 1}, got ({i}, {j})")
    tensor, rows = state.reshape((2,) * (2 * n)), list(range(n))
    columns = [n + k if k in (i, j) else k for k in range(n)]  # a traced site's column is its row
    return np.einsum(tensor, rows + columns, [i, j, n + i, n + j]).reshape(4, 4)


def magnetization(state: np.ndarray) -> float:
    """(1/N) sum_i <S_i^z>; uses the diagonal of sum_i sigma_i^z directly."""
    n = int(round(math.log2(state.shape[0])))
    total = float(np.real(np.diag(state)) @ (n - 2.0 * _popcounts(n)))
    return total / (2.0 * n)


def pair_correlators(state: np.ndarray, i: int, j: int):
    """(S^x, S^y, S^z) correlators <S_i^a S_j^a> of one site pair."""
    rho2 = reduce_pair(state, i, j)
    return tuple(float(np.trace(rho2 @ np.kron(op, op)).real) / 4.0 for op in (SX, SY, SZ))


def quench_series(n: int, gamma: float, kt: float, a: float, b: float, times, d: int = 1):
    """Oracle observables (M_z, S^x, S^y, S^z, rho_pair) for each requested time.

    Each parity block of rho0 is F F^T, F = V_a sqrt(w) over the block's c
    nonzero Gibbs weights, and R = V_b^T F; at time t the block is G G^dagger,
    G = V_b p R with p = exp(-i E_b t).  V_b's rows are sorted once by the pair
    state i of sites 0 and d, so the rows V_i in state i are a quarter of V_b,
    and the quarters of an X-state entry rho_ij (i, j of equal parity) list the
    other sites in the same order.  So rho_ij(t) = p^T [S o (V_i^T V_j)] p*,
    with S = R R^T and V_i^T V_j formed once per block for all T times, then
    one (2T x K) @ (K x K) real product per entry, K = 2^(n-1).  G is never
    formed and each block of H(a) and H(b) is built on its own, so the memory
    peak is a few K x K arrays, and c adds only F's K x c columns to it.
    Times must be finite: unlike the mode pipeline, ED has no dephased t = inf.

    A block with no Gibbs weight (at kT = 0, a sector without ground states)
    is skipped, H(b) included.  rho_pair sums the blocks; M_z is <S^z> of
    site 0, since the ring's state is translation invariant.
    """
    _check_sites(n)
    if d % n == 0:
        raise ValueError(f"the pair (0, d) needs two distinct sites, but d = {d} is a multiple of n = {n}")
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError(f"ED needs finite times, got t = {times[~np.isfinite(times)][0]}")
    before = [np.linalg.eigh(build_hamiltonian(n, gamma, a, p)) for p in (0, 1)]
    # One ground energy, one kT = 0 rule and one Z for both sectors together.
    weights = np.split(_gibbs_weights(np.concatenate([evals for evals, _ in before]), kt), 2)
    # A block with no weight adds nothing to rho; its H(b) eigensolve is skipped.
    occupied = [k for k, w in enumerate(weights) if w.any()]
    after = [np.linalg.eigh(build_hamiltonian(n, gamma, b, k)) for k in occupied]
    states = np.arange(2**n)
    pair = 2 * (states >> (n - 1) & 1) + (states >> (n - 1 - d % n) & 1)  # 00, 01, 10, 11 -> 0..3
    # The X state's diagonal and upper corners, the entries whose pair states have equal parity.
    rows, cols = np.array([(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (1, 2)]).T
    rho = np.zeros((len(times), 4, 4), dtype=complex)
    for k, (evals, vecs) in zip(occupied, after):
        # F is formed only after H(b)'s eigensolves, so the Gibbs rank c does not set the peak.
        w, vecs_a = weights[k], before[k][1]
        r = vecs.T @ (vecs_a[:, w > 0] * np.sqrt(w[w > 0]))  # R = V_b^T F
        quarters = vecs[np.argsort(pair[_popcounts(n) % 2 == k], kind="stable")].reshape(4, -1, len(evals))
        phases = np.stack([f(-np.outer(times, evals)) for f in (np.cos, np.sin)])  # p = phases[0] + i phases[1]
        s = r @ r.T
        for i, j in zip(rows, cols):
            # parts[u, v] = phases[u] M phases[v] at each time, for M = S o (V_i^T V_j).
            parts = np.einsum("utk,vtk->uvt", phases @ (s * (quarters[i].T @ quarters[j])), phases)
            rho[:, i, j] += parts[0, 0] + parts[1, 1] + 1j * (parts[1, 0] - parts[0, 1])
    # rho is Hermitian: a real diagonal, and lower corners conjugate to the upper ones.
    rho.imag[:, rows[:4], rows[:4]] = 0.0
    rho[:, cols[4:], rows[4:]] = rho[:, rows[4:], cols[4:]].conj()
    # Each rho is the state of a two-site ring, so its correlators need no second reduction.
    return [(float(r.real.diagonal() @ [.5, .5, -.5, -.5]), *pair_correlators(r, 0, 1), r) for r in rho]
