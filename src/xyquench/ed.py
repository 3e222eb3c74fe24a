"""Exact-diagonalization oracle for small rings, in the two parity sectors.

    H = -(1+gamma)/2 sum sx_i sx_{i+1} - (1-gamma)/2 sum sy_i sy_{i+1}
        - h sum sz_i              (periodic, coupling 1)

is real in the z basis and commutes with the parity prod_i sz_i, so basis
states of even and of odd popcount span two blocks that H never couples;
``quench_series`` works on each half-size block in real arithmetic.  No
fermion mapping enters.  The mode pipeline agrees with this oracle only to
O(1/N), so comparisons tighten as N grows rather than hit machine precision.
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


def build_hamiltonian(n: int, gamma: float, h: float) -> np.ndarray:
    """Dense real 2^n x 2^n Hamiltonian of the ring at field h.

    Site i is bit n-1-i of the basis index, a clear bit meaning sz = +1, so the
    diagonal is -h (n - 2 popcount).  Each bond flips its two bits, with
    amplitude -gamma when they are equal and -1 when they differ.
    """
    _check_sites(n)
    states = np.arange(2**n)
    ham = np.diag(-h * (n - 2.0 * _popcounts(n)))
    for i in range(n):
        j = (i + 1) % n
        equal = ((states >> i) & 1) == ((states >> j) & 1)
        ham[states, states ^ (1 << i | 1 << j)] = np.where(equal, -gamma, -1.0)
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

    Each parity block of rho0 is rotated once into the eigenbasis V of H(b)'s
    block, where it is real symmetric (rho~); the block of rho(t) is then
    V (rho~ * exp(-i(E_m - E_n)t)) V^T, formed as real products with cos and sin.
    """
    _check_sites(n)
    sectors = [np.ix_(s, s) for s in (np.flatnonzero(_popcounts(n) % 2 == p) for p in (0, 1))]
    # Each dense H is dropped once its blocks are diagonalized.
    before, after = ([np.linalg.eigh(ham[sector]) for sector in sectors]
                     for ham in (build_hamiltonian(n, gamma, h) for h in (a, b)))
    # One ground energy, one kT = 0 rule and one Z for both sectors together.
    weights = _gibbs_weights(np.concatenate([evals for evals, _ in before]), kt)
    overlaps = [vecs_b.T @ vecs_a for (_, vecs_a), (_, vecs_b) in zip(before, after)]
    rotated = [(o * w) @ o.T for o, w in zip(overlaps, np.split(weights, [2 ** (n - 1)]))]
    rho_t = np.zeros((2**n, 2**n), dtype=complex)
    rows = []
    for t in times:
        for sector, (evals, vecs), rho in zip(sectors, after, rotated):
            gaps = np.subtract.outer(evals, evals) * t
            real = vecs @ (rho * np.cos(gaps)) @ vecs.T
            imag = vecs @ (rho * np.sin(gaps)) @ vecs.T
            rho_t[sector] = real - 1j * imag
        rho2 = reduce_pair(rho_t, 0, d % n)
        # rho2 is the state of a two-site ring, so its correlators need no second reduction.
        rows.append((magnetization(rho_t), *pair_correlators(rho2, 0, 1), rho2))
    return rows
