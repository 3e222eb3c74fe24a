"""Exact-diagonalization oracle for small rings, in the two parity sectors.

    H = -(1+gamma)/2 sum sx_i sx_{i+1} - (1-gamma)/2 sum sy_i sy_{i+1}
        - h sum sz_i              (periodic, coupling 1)

is real in the z basis and commutes with the parity prod_i sz_i, so basis
states of even and of odd popcount span two blocks that H never couples;
``quench_series`` evolves each half-size block of the Gibbs state's factor.
No fermion mapping enters.  The mode pipeline agrees with this oracle only to
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

    Each parity block of rho0 is F F^T, F = V_a sqrt(w) over the nonzero Gibbs
    weights; at time t it is G G^dagger with G = V_b exp(-i E_b t) V_b^T F.
    rho_pair traces G G^dagger over all sites but 0 and d, summed over blocks;
    M_z is <S^z> of site 0, since the ring's state is translation invariant.
    """
    _check_sites(n)
    sectors = [np.flatnonzero(_popcounts(n) % 2 == p) for p in (0, 1)]
    # Each dense H is dropped once its blocks are diagonalized.
    before, after = ([np.linalg.eigh(ham[np.ix_(sector, sector)]) for sector in sectors]
                     for ham in (build_hamiltonian(n, gamma, h) for h in (a, b)))
    # One ground energy, one kT = 0 rule and one Z for both sectors together.
    weights = _gibbs_weights(np.concatenate([evals for evals, _ in before]), kt)
    factors = [vecs_b.T @ (vecs_a[:, w > 0] * np.sqrt(w[w > 0]))
               for (_, vecs_a), (_, vecs_b), w in zip(before, after, np.split(weights, [2 ** (n - 1)]))]
    rows = []
    for t in times:
        rho2 = np.zeros((4, 4), dtype=complex)
        for sector, (evals, vecs), r in zip(sectors, after, factors):
            g = np.zeros((2**n, r.shape[1]), dtype=complex)
            g.real[sector], g.imag[sector] = (vecs @ (f(-evals * t)[:, None] * r) for f in (np.cos, np.sin))
            pair = np.moveaxis(g.reshape((2,) * n + r.shape[1:]), (0, d % n), (0, 1)).reshape(4, -1)
            rho2 += pair @ pair.conj().T
        # rho2 is the state of a two-site ring, so its correlators need no second reduction.
        rows.append((float(rho2.real.diagonal() @ [.5, .5, -.5, -.5]), *pair_correlators(rho2, 0, 1), rho2))
    return rows
