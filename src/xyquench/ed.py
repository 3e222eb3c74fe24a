"""Exact-diagonalization oracle for small rings, in (parity, momentum) blocks.

    H = -(1+gamma)/2 sum sx_i sx_{i+1} - (1-gamma)/2 sum sy_i sy_{i+1}
        - h sum sz_i              (periodic, coupling 1)

is solved on the spin ring itself: no fermion mapping enters.  quench_series
says how.

The mode pipeline agrees with this oracle only to O(1/N), so comparisons
tighten as N grows rather than hit machine precision.  The causes: the
paired-mode grid of lattice.grid_arrays, which is neither parity sector of
the ring (on the even-sector grid the two agree to rounding at kT = 0 where
the ground state is even: test_ring_rule_equals_ed_at_zero_temperature); at
kT > 0 the Gibbs state, which mixes both sectors; and for C at finite t after
a quench, the Im rho14 that the pair layer drops (entanglement).
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


@functools.lru_cache(maxsize=None)
def _orbits(n: int):
    """(rep, shift, period) of each basis state under the translation T; read-only.

    T moves site i to site i + 1, a right rotation of the index by one bit.
    rep is the state's smallest rotation, the state is T^shift rep, and period
    is the size of its orbit, the least R > 0 with T^R state = state.
    """
    rotations = [np.arange(2**n)]  # T^r of every state, r = 0..n
    for _ in range(n):
        rotations.append(rotations[-1] >> 1 | (rotations[-1] & 1) << (n - 1))
    rotations = np.array(rotations)
    first = rotations[:n].argmin(axis=0)  # T^first state = rep
    tables = (rotations[first, rotations[0]], (n - first) % n, (rotations[1:] == rotations[0]).argmax(axis=0) + 1)
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=None)
def _blocks(n: int):
    """(parity, m, representatives) of each block that H never leaves, parity-major.

    The momentum states of k = 2 pi m / n are the orbit sums
    |a(k)> = sum_{r < R} e^{-ikr} T^r |a> / sqrt(R), T|a(k)> = e^{ik} |a(k)>,
    nonzero when m R = 0 (mod n).  A block lists its representatives in
    increasing order; the block sizes sum to 2^n.
    """
    rep, _, period = _orbits(n)
    reps = np.flatnonzero(rep == np.arange(2**n))
    blocks = tuple((p, m, reps[(_popcounts(n)[reps] % 2 == p) & (m * period[reps] % n == 0)])
                   for p in (0, 1) for m in range(n))
    for _, _, members in blocks:
        members.flags.writeable = False
    return blocks


def _bond(gamma: float, h: float) -> np.ndarray:
    """-(1+gamma)/2 sx sx - (1-gamma)/2 sy sy - h/2 (sz 1 + 1 sz) on one bond, basis 00, 01, 10, 11.

    Equal spins flip together with amplitude -gamma, opposite ones with -1;
    the sum over the n bonds is H.
    """
    return np.array([[-h, 0.0, 0.0, -gamma], [0.0, 0.0, -1.0, 0.0], [0.0, -1.0, 0.0, 0.0], [-gamma, 0.0, 0.0, h]])


def _pair_terms(n: int, states: np.ndarray, d: int, ops):
    """(operator, column, image state, amplitude) of each term of sum_l op_{l, l+d} on the given states.

    ops is a stack of operators on sites (l, l + d) in the basis 00, 01, 10,
    11, site l first and 1 a down spin: the image of a state whose pair is in
    i, with amplitude op[j, i], has that pair set to j.  Site l is bit n-1-l
    of the index.
    """
    sites = np.arange(n)[:, None]
    first, second = n - 1 - sites, n - 1 - (sites + d) % n
    pair = 2 * (states >> first & 1) + (states >> second & 1)
    terms = []
    for e, j, i in zip(*np.nonzero(ops)):
        site, col = np.nonzero(pair == i)
        flip = ((i ^ j) >> 1) << first[site, 0] | ((i ^ j) & 1) << second[site, 0]
        terms.append((np.full(len(col), e), col, states[col] ^ flip, np.full(len(col), ops[e][j, i])))
    return tuple(np.concatenate(part) for part in zip(*terms))


def build_hamiltonian(n: int, gamma: float, h: float) -> np.ndarray:
    """Dense real Hamiltonian of the ring at field h, on all 2^n states.

    Site i is bit n-1-i of the basis index, a clear bit meaning sz = +1; H is
    the sum of ``_bond`` over the n bonds (i, i + 1).
    """
    _check_sites(n)
    _, col, image, amp = _pair_terms(n, np.arange(2**n), 1, [_bond(gamma, h)])
    ham = np.zeros((2**n, 2**n))
    np.add.at(ham, (image, col), amp)
    return ham


def _block_operator(n: int, m: int, reps: np.ndarray, d: int, ops) -> np.ndarray:
    """sum_l op_{l, l+d} for each op of ops on the momentum states k = 2 pi m / n of reps.

    An image T^s |b> of a representative a adds amp e^{iks} sqrt(R_a / R_b)
    to <b(k)|O|a(k)>; an image whose orbit has no state at k is dropped, since
    its terms cancel.
    """
    rep, shift, period = _orbits(n)
    index, col, image, amp = _pair_terms(n, reps, d, ops)
    target = rep[image]
    row = np.minimum(np.searchsorted(reps, target), len(reps) - 1)
    keep = reps[row] == target
    value = amp * np.exp(2j * np.pi * (m * shift[image] % n) / n) * np.sqrt(period[reps[col]] / period[target])
    blocks = np.zeros((len(ops), len(reps), len(reps)), dtype=complex)
    np.add.at(blocks, (index[keep], row[keep], col[keep]), value[keep])
    return blocks


def _gibbs_weights(evals: np.ndarray, kt: float) -> np.ndarray:
    """exp(-(E - E_0)/kT)/Z, overflow-free at low kT; at kT = 0, even over E - E_0 < GROUND_TOL."""
    if not kt >= 0:  # NaN too; kT = inf is the maximally mixed state
        raise ValueError(f"kt must be non-negative, got {kt}")
    shifted = evals - evals.min()
    with np.errstate(over="ignore"):  # at a subnormal kT, -(E - E_0)/kT overflows to -inf: weight 0
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

    H is real in the z basis and commutes with the parity prod_i sz_i and with
    the one-site translation T, so it never leaves a block of one parity and
    one momentum k = 2 pi m / n, spanned by the orbit sums of T (_blocks;
    Sandvik, AIP Conf. Proc. 1297, 135 (2010)), of about K = 2^(n-1) / n
    states.  So does rho(t), so the X-state entry rho_ij = Tr[rho(t) |j><i|]
    of the pair (0, d) is also the trace against
    O = (1/n) sum_l |j><i|_{l, l+d}, which _block_operator builds on each
    block from the representatives alone.  In a block, rho0 = F F^dagger with
    F = V_a sqrt(w) over the block's c nonzero Gibbs weights, R = V_b^dagger F
    and S = R R^dagger; with p = exp(-i E_b t), rho_ij(t) = p^T X p* with
    X = S o (V_b^dagger O V_b)^T: each block is traced down to the pair once,
    in H(b)'s eigenbasis, for all times.  H, O and T are real, so the block of
    -k (m -> n - m) has the representatives of the block of k, conjugate
    entries, the same spectrum and X*: only the blocks with 2m <= n are built
    and diagonalized (12 of 20 at n = 10), and one with a mirror adds
    X + X* = 2 Re X.  Each entry costs one (T x K) @ (K x K) product per
    solved block.  No 2^n-sized array is formed: the memory peak is the H(a)
    eigenvectors of the solved blocks, 16 sum K^2 bytes (0.48 MiB at
    n = 10), plus a few arrays of one block.  Times must be finite: unlike
    the mode pipeline, ED has no dephased t = inf.

    The Gibbs weights come from the spectra of all 2n blocks together, each
    solved spectrum counted once per block it stands for: one ground energy,
    one kT = 0 rule and one Z.  A block with no Gibbs weight (at kT = 0, a
    block without ground states) is skipped with its mirror, H(b) included.
    rho_pair sums the blocks, and M_z (<S^z> of site 0) and the correlators
    are read off its entries.
    """
    _check_sites(n)
    if d % n == 0:
        raise ValueError(f"the pair (0, d) needs two distinct sites, but d = {d} is a multiple of n = {n}")
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError(f"ED needs finite times, got t = {times[~np.isfinite(times)][0]}")
    # The blocks with 2m <= n, each with the number of blocks it stands for: itself and its mirror n - m.
    blocks = [(m, reps, 1 if 2 * m % n == 0 else 2) for _, m, reps in _blocks(n) if 2 * m <= n]
    before = [np.linalg.eigh(_block_operator(n, m, reps, 1, [_bond(gamma, a)])[0]) for m, reps, _ in blocks]
    spectra = [np.tile(evals, mult) for (evals, _), (_, _, mult) in zip(before, blocks)]
    weights = np.split(_gibbs_weights(np.concatenate(spectra), kt), np.cumsum([len(e) for e in spectra])[:-1])
    # The X state's diagonal and upper corners, the entries whose pair states have equal parity.
    rows, cols = np.array([(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (1, 2)]).T
    entries = np.zeros((len(rows), 4, 4))
    entries[np.arange(len(rows)), cols, rows] = 1.0 / n  # |j><i| / n
    rho = np.zeros((len(times), 4, 4), dtype=complex)
    for (m, reps, mult), (_, vecs_a), w in zip(blocks, before, weights):
        w = w[:len(reps)]  # the mirror block's weights are the same
        if not w.any():
            continue
        evals, vecs = np.linalg.eigh(_block_operator(n, m, reps, 1, [_bond(gamma, b)])[0])
        r = vecs.conj().T @ (vecs_a[:, w > 0] * np.sqrt(w[w > 0]))  # R = V_b^dagger F
        s = r @ r.conj().T
        x = s * (vecs.conj().T @ _block_operator(n, m, reps, d, entries) @ vecs).transpose(0, 2, 1)
        if mult == 2:
            x = 2.0 * x.real
        phases = np.exp(-1j * np.outer(times, evals))
        rho[:, rows, cols] += np.einsum("etk,tk->te", phases @ x, phases.conj())
    # rho is Hermitian: a real diagonal, and lower corners conjugate to the upper ones.
    rho.imag[:, rows[:4], rows[:4]] = 0.0
    rho[:, cols[4:], rows[4:]] = rho[:, rows[4:], cols[4:]].conj()
    # S^x = Re(rho14 + rho23)/2, S^y = Re(rho23 - rho14)/2, S^z = (rho11 - rho22 - rho33 + rho44)/4.
    diagonal, corner, middle = rho.real.diagonal(axis1=1, axis2=2), rho.real[:, 0, 3], rho.real[:, 1, 2]
    observables = np.column_stack([diagonal @ [.5, .5, -.5, -.5], (corner + middle) / 2, (middle - corner) / 2,
                                   diagonal @ [.25, -.25, -.25, .25]])
    return [(*row, r) for row, r in zip(observables.tolist(), rho)]
