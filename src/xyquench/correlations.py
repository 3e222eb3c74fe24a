"""Fermionic contractions, magnetization and string correlators on the ring.

With A_l = c_l^dag + c_l and B_l = c_l^dag - c_l, every equal-time spin
observable reduces to the three elementary contractions <B_l A_m>, <A_l A_m>
and <B_l B_m>.  They depend only on the offset m - l, through three weighted
mode sums sum_p weight_p f(phi_p) over the nodes of lattice.grid_arrays
(_contractions): the cos- and sin-weighted halves C and S of <BA> and the
imaginary part I shared by <AA> and <BB>.  The summands are the per-mode
states of mode_blocks, the package's one closed form for them (dynamics
reaches them by diagonalization, as a test oracle).  The sums fill the skew
contraction matrix Gamma (contraction_table), and each spin-spin correlator
is 1/4 times the Pfaffian of the rows and columns of Gamma that its operator
string picks out (Wick's theorem for the quadratic fermion problem).

Every function here takes one point (config, t) or a batch of points: a
sequence of configs sharing one ring size and a sequence of times, of equal
length, or one of the two as a single value that every point shares; a
sequence may be a list, a tuple or a numpy array.  A NaN time is invalid,
and so is a finite one whose phase is too large to resolve (_columns).
Results have a leading points axis; one point is the batch of one and gives
its entry.

Time arguments accept math.inf, which selects the dephased long-time limit:
sin^2(2 t Lambda) -> 1/2 and sin(4 t Lambda) -> 0 mode by mode, while modes
with Lambda(after) below the series threshold never evolve and keep their
initial value.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache
from itertools import groupby
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, at_point
from .lattice import ChainConfig, grid_arrays

# Below this, expressions with Lambda(b) in a denominator switch to their
# series limit (sin(2 t L)/L -> 2 t and friends).
SERIES_EPS = 1e-8
# Below this, Lambda(a) counts as exactly degenerate: at kT = 0 the whole
# 4-dimensional subspace is then a ground space and the state is uniform.
# The spectral oracle in dynamics applies ed.GROUND_TOL = 1e-10 to the level
# spacing 2 Lambda(a) instead, so in the window 1e-12 < Lambda(a) < 5e-11 the
# two disagree: this rule keeps the pure ground state, the oracle mixes the
# near-degenerate levels.
DEGENERACY_EPS = 1e-12
# Correlators are real; anything above this imaginary residue means the
# contraction matrix is inconsistent and the result cannot be trusted.
IMAG_TOL = 1e-10
# The one memory budget: points x modes in a piece of a run's (b, t) columns
# (_contractions), and complex entries in a chunk's Gamma (cli._evaluate).
CHUNK_ELEMENTS = 40000


def _points(config, t):
    """(configs, times, single): one point or a batch as equal-length tuples.

    single tells that both config and t were single values, so the caller
    returns the entry of its one point.
    """
    one_config, one_time = isinstance(config, ChainConfig), np.ndim(t) == 0
    configs = (config,) if one_config else tuple(config)
    times = (float(t),) if one_time else tuple(map(float, t))
    if len(configs) == 1:
        configs *= len(times)
    elif len(times) == 1:
        times *= len(configs)
    if not configs or len(configs) != len(times):
        raise ValueError(f"a batch needs as many configs as times, got {len(configs)} and {len(times)}")
    if any(map(math.isnan, times)):
        raise ValueError("a time of the batch is NaN")
    if len({c.n_sites for c in configs}) > 1:
        raise ValueError("the points of a batch must share one ring size")
    return configs, times, one_config and one_time


class ModeBlocks(NamedTuple):
    """Evolved (vacuum, pair) density block of every mode, per point."""

    population: np.ndarray  # rho22 - rho11, pair minus vacuum occupation
    coherence: np.ndarray  # rho12 = <vacuum| rho |pair>


@lru_cache(maxsize=None)
def _grid(n_sites: int, gamma: float) -> tuple[np.ndarray, ...]:
    """phi_p, cos(phi_p), delta_p and weight_p: the module's one read of the grid."""
    phi, delta, weight = grid_arrays(ChainConfig(n_sites, gamma, 0.0, 0.0, 0.0))
    return _read_only(phi, np.cos(phi), delta, weight)


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _dispersion(n_sites: int, gamma: float, h: float) -> np.ndarray:
    """Lambda(h) per mode, for a field before or after the quench alike.

    Cached per field, so a run over many (a, b) points computes one row of
    hypot per distinct field, not two per point.
    """
    _, cos, delta, _ = _grid(n_sites, gamma)
    return _read_only(np.hypot(cos + h, 0.5 * delta))[0]


def _terms(n_sites: int, gamma: float, kt: float, a: float) -> tuple:
    """(head, scale, row) of rho22 - rho11, Im rho12 and Re rho12 at field a.

    Each quantity is head + scale (b - a) row column per mode (mode_blocks),
    with the weight W = tanh(Lambda_a/kT)/Lambda_a of the Gibbs state at a.
    """
    lam_a, (_, cos, delta, _) = _dispersion(n_sites, gamma, a), _grid(n_sites, gamma)
    # tanh = 1 where Lambda_a/kT overflows, at kT = 0 or a subnormal kT.  W = 0
    # where Lambda_a = x_a = delta = 0, so every product W enters is 0, and at
    # kT = 0 on exactly degenerate modes, which are uniform and contribute
    # nothing; nearby modes stay finite because |x_a|, |delta|/2 <= Lambda_a.
    live = lam_a > (DEGENERACY_EPS if kt == 0.0 else 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        tanh = np.tanh(np.divide(lam_a, kt, out=np.zeros_like(lam_a), where=live))
    weight = np.divide(tanh, lam_a, out=np.zeros_like(lam_a), where=live)
    wd = weight * delta
    return (weight * (cos + a), 0.5, wd * delta), (0.25 * wd, -0.5, wd), (None, 0.25, wd)


@lru_cache(maxsize=None)
def _trig_table(n_sites: int, gamma: float, d_max: int) -> tuple[np.ndarray, np.ndarray]:
    """weight cos(d phi) and weight sin(d phi) for d = 0..d_max, as (offsets x modes) arrays."""
    phi, _, _, weight = _grid(n_sites, gamma)
    angle = np.multiply.outer(np.arange(d_max + 1, dtype=float), phi)
    return _read_only(weight * np.cos(angle), weight * np.sin(angle))


def _tables(n_sites: int, gamma: float, kt: float, a: float, d_max: int) -> tuple:
    """(heads, scales, table, half_table): the mode-sum tables of one run at field a.

    table holds the weighted cos and sin tables (_trig_table) times _terms'
    rows of C and S, half_table the sin table times the row of I, and heads
    the head terms of C and S.  A run of points forms them once, before its
    pieces, and drops them when it ends: 24 (d_max + 1) bytes per mode.  The
    tables are fresh buffers, since a finite-time run folds its b into them
    in place.
    """
    cos, sin = _trig_table(n_sites, gamma, d_max)
    terms = _terms(n_sites, gamma, kt, a)
    # Two buffers, not one (3 x offsets x modes) array: at N = 40000 the one
    # array raised the time series' peak RSS by 0.2 MB.
    table, half = np.empty((2, *cos.shape)), np.empty(cos.shape)
    for out, trig, (_, _, row) in zip((table[0], table[1], half), (cos, sin, sin), terms):
        np.multiply(trig, row, out=out)
    heads = np.stack((terms[0][0] @ cos.T, terms[1][0] @ sin.T))
    return heads, [scale for _, scale, _ in terms], table, half


def _fold(n_sites: int, gamma: float, b: float, w: np.ndarray, xw: np.ndarray, v: np.ndarray) -> None:
    """w, xw and v times 1/Lambda_b^2, x_b/Lambda_b^2 and 2/Lambda_b per mode (their last axis), in place.

    These are the factors of b alone, at finite t and at t = inf alike: with
    them the phase columns sin^2(2 t Lambda_b) and sin(4 t Lambda_b)/2 give
    w, x_b w and v.  Frozen modes (Lambda_b below SERIES_EPS) take 1, x_b
    and 1, since their columns hold the series limits themselves.
    """
    lam, cos = _dispersion(n_sites, gamma, b), _grid(n_sites, gamma)[1]
    evolving = lam >= SERIES_EPS
    for out in (w, w, xw, xw, v):
        np.divide(out, lam, out=out, where=evolving)
    np.multiply(v, 2.0, out=v, where=evolving)
    xw *= cos + b


@lru_cache(maxsize=None)
def _dephased(n_sites: int, gamma: float, b: float) -> np.ndarray:
    """(w, x_b w) of field b at t = inf, a (2 x modes) array: the phase columns folded by _fold.

    Dephased, sin^2(2 t Lambda_b) -> 1/2 on evolving modes and 0 on frozen
    ones, which never dephase, and sin(4 t Lambda_b)/2 -> 0 in a scratch row,
    so w = 1/(2 Lambda_b^2) and v = 0.  A surface meets each b once per a, so
    the rows are cached per distinct b: 16 bytes per mode and field.
    """
    lam = _dispersion(n_sites, gamma, b)
    rows = np.empty((2, lam.size))
    rows[:] = np.where(lam >= SERIES_EPS, 0.5, 0.0)
    _fold(n_sites, gamma, b, *rows, np.zeros(lam.size))
    return _read_only(rows)[0]


def _runs(configs: tuple, times: tuple):
    """(key, rows) per run of consecutive points; rows is a slice.

    A run's points share key = (gamma, kT, a, b), with b = None for dephased
    points, whose b may differ from point to point.
    """
    start = 0
    for key, run in groupby((c.gamma, c.kt, c.field_before, None if math.isinf(t) else c.field_after)
                            for c, t in zip(configs, times)):
        stop = start + sum(1 for _ in run)
        yield key, slice(start, stop)
        start = stop


def _columns(n: int, key: tuple, configs: tuple, times: tuple) -> tuple:
    """(gap, columns): points of one run (_runs) in the factorised form of mode_blocks.

    columns is a (2 x points x modes) array, 8 bytes per point and mode
    each, and no other (points x modes) array is made.  Dephased, gap = b - a
    per point as a column, and the columns are each point's rows of
    _dephased, copied in by one stack.  At finite t, gap = b - a and the
    columns carry only the phase, sin^2(2 t Lambda_b) = u^2/(1 + u^2) and
    sin(4 t Lambda_b)/2 = u/(1 + u^2) from one u = tan(2 t Lambda_b) (float64
    tan of 10^6 arguments in [0, 500] took 2.9 ms, sin 32 ms: numpy 2.4,
    AVX-512 x86); frozen modes hold the series limits (2t)^2 and 4t.  A time
    whose phase 2 t max Lambda_b reaches 2^33 is invalid: one ulp of it
    exceeds 1e-6 rad there.
    """
    gamma, _, a, b = key
    columns = np.empty((2, len(configs), _grid(n, gamma)[1].size))
    if b is None:
        np.stack([_dephased(n, gamma, c.field_after) for c in configs], axis=1, out=columns)
        return np.array([c.field_after - a for c in configs])[:, None], columns
    sq, half = columns
    lam = _dispersion(n, gamma, b)
    lam_max = float(lam.max())  # in Python floats an overflowing phase is inf, with no warning
    late = [t for t in times if 2.0 * abs(t) * lam_max >= 2.0**33]
    if late:
        raise ValueError(f"time {late[0]} is too large: its phase 2 t max Lambda_b is past 2^33, "
                         "where one ulp exceeds 1e-6 rad")
    t = np.array(times)[:, None]
    # u in sq and 1 + u^2 in half; then half = u/(1 + u^2) and sq = u half.
    # Not 1 - 1/(1 + u^2): it cancels at small u, and 1/Lambda^2 would
    # magnify that.
    np.multiply(2.0 * t, lam, out=sq)
    np.tan(sq, out=sq)
    np.multiply(sq, sq, out=half)
    half += 1.0
    np.divide(sq, half, out=half)
    sq *= half
    frozen = lam < SERIES_EPS
    if frozen.any():
        sq[:, frozen] = (2.0 * t) ** 2
        half[:, frozen] = 4.0 * t
    return b - a, columns


_open_scopes = 0
_held = None  # (configs, times, Gamma) of the last stack (_contractions)
_lookups = {"hits": 0, "misses": 0}  # of _held, over every run


@contextmanager
def factor_scope():
    """Share each field's mode factors among the batches evaluated inside.

    Scopes nest; the four caches (_FACTOR_CACHES: the grid, Lambda(h) per
    field, the dephased rows per b and the trig tables) and the held Gamma
    are emptied when the outermost one ends, so nothing a run caches
    outlives it.  Each public function here runs in a scope, so a call made
    outside any scope is a run of its own and leaves nothing cached.
    """
    global _open_scopes, _held
    _open_scopes += 1
    try:
        yield
    finally:
        _open_scopes -= 1
        if not _open_scopes:
            _held = None
            for cache in _FACTOR_CACHES:
                cache.cache_clear()


@factor_scope()
def mode_blocks(config, t) -> ModeBlocks:
    """Per-mode state after the quench a -> b, in the closed form of Barouch & McCoy.

    Each momentum subspace has basis (vacuum, pair, single +p, single -p);
    only the (vacuum, pair) block enters the contractions.  The Gibbs state
    at field a is weighted by W = tanh(Lambda_a/kT)/Lambda_a (kT = 0 allowed)
    and rotates under field b at frequency 4 Lambda_b; t = math.inf keeps its
    dephased part.  Per mode, with x_h = cos(phi) + h,

        rho22 - rho11 = W x_a + (1/2) (b - a) W delta^2 w,
        Im rho12 = W delta / 4 - (1/2) (b - a) W delta x_b w,
        Re rho12 = (1/4) (b - a) W delta v:

    each a head and a row that depend on a alone (_terms), and a column w,
    x_b w or v that depends on (b, t) alone, so only the scalar b - a couples
    them, with w = sin^2(2 t Lambda_b)/Lambda_b^2 and
    v = sin(4 t Lambda_b)/Lambda_b.  Modes with Lambda_b below SERIES_EPS
    take the series limits w = (2t)^2, v = 4t and never dephase (w = 0).
    For a batch the arrays are (points x modes).
    """
    configs, times, single = _points(config, t)
    n = configs[0].n_sites
    population, im, re = np.zeros((3, len(configs), _grid(n, configs[0].gamma)[1].size))
    for key, rows in _runs(configs, times):
        gap, (w, xw) = _columns(n, key, configs[rows], times[rows])
        v = None
        if key[3] is not None:
            xw, v = w.copy(), xw
            _fold(n, key[0], key[3], w, xw, v)
        for out, (head, scale, row), column in zip((population, im, re), _terms(n, *key[:3]), (w, xw, v)):
            if column is not None:
                out[rows] = scale * gap * row * column
            if head is not None:
                out[rows] += head
    blocks = ModeBlocks(population, re + 1j * im)
    return ModeBlocks(*(x[0] for x in blocks)) if single else blocks


@factor_scope()
def magnetization_z(config, t):
    """Transverse magnetization per site, M_z(t) = (1/N) sum_l <S_l^z> = C[0]/2.

    That is half the weighted mode sum sum_p weight_p (rho22 - rho11); C[0]
    weighs it by cos(0) = 1 and is Gamma's <B_0 A_0>.
    """
    configs, times, single = _points(config, t)
    mz = 0.5 * _contractions(configs, times, 0)[:, 1, 0].real
    return float(mz[0]) if single else mz


def _contractions(configs: tuple, times: tuple, d_max: int) -> np.ndarray:
    """contraction_table's stack for the points of _points, from the sums C, S and I.

    <B_l A_{l+d}> = C[d] + S[d] and <A_l A_{l+d}> - delta_{d0} = i I[d]; S and I
    are odd in d, C is even.  Per mode, C weighs rho22 - rho11 by weight cos(d phi),
    S weighs 2 Im rho12 and I weighs -2 Re rho12 by weight sin(d phi).  Per run of
    points (_runs), each sum over d = 0..d_max is a head plus a bilinear form
    of a (b, t) column (_columns) and a table (_tables).  Dephased, the
    columns w and x_b w meet the C and S tables.  A finite-time run of points
    sharing (a, b) scales its tables by scale (b - a) and folds its factors
    of b into them (_fold), so sin^2(2 t Lambda_b) gives C and S together
    and sin(4 t Lambda_b)/2 gives I.  The columns stream in pieces of
    CHUNK_ELEMENTS // modes points (4 times at N = 20000, 40 points at
    N = 2000), one (points x modes) @ (modes x offsets) product per piece
    and table, each piece freed before the next is formed.  A point's sums
    may move by an ulp with the piece it lands in, but reruns are bitwise
    equal, also at 1 and 2 BLAS threads (checked in CI).  The stack is held
    read-only (_held) until another replaces it, and a later call on points
    equal to its own for offsets up to its d_max slices it, so a chunk's
    three strings and M_z share one Gamma.
    """
    global _held
    n = configs[0].n_sites
    if not 0 <= d_max < n:
        raise ValueError(f"offset {d_max} outside the ring of {n} sites")
    hit = _held is not None and _held[:2] == (configs, times) and _held[2].shape[-1] >= 2 * d_max + 2
    _lookups["hits" if hit else "misses"] += 1
    if hit:
        return _held[2][:, : 2 * d_max + 2, : 2 * d_max + 2]
    size = max(1, CHUNK_ELEMENTS // _grid(n, configs[0].gamma)[1].size)
    sums = np.zeros((len(configs), 3, d_max + 1))
    for key, run in _runs(configs, times):
        _, _, a, b = key
        heads, scales, table, half = _tables(n, *key[:3], d_max)
        if b is not None:
            for out, scale in zip((table[0], table[1], half), scales):
                out *= scale * (b - a)
            _fold(n, key[0], b, table[0], table[1], half)
        for start in range(run.start, run.stop, size):
            rows = slice(start, min(start + size, run.stop))
            gap, columns = _columns(n, key, configs[rows], times[rows])
            if b is None:
                for i in range(2):
                    sums[rows, i] = heads[i]
                    sums[rows, i] += scales[i] * gap * (columns[i] @ table[i].T)
            else:
                both = columns[0] @ table.reshape(2 * d_max + 2, -1).T  # C and S side by side
                sums[rows, :2] = heads + both.reshape(-1, 2, d_max + 1)
                sums[rows, 2] = columns[1] @ half.T
            del columns
        del table, half
    c, s, im = sums[:, 0], 2.0 * sums[:, 1], -2.0 * sums[:, 2]
    site = np.arange(d_max + 1)
    offset = site[None, :] - site[:, None]
    k, sign = np.abs(offset), np.sign(offset)
    gamma = np.empty((len(configs), d_max + 1, 2, d_max + 1, 2), dtype=complex)
    # <A_s A_s'> = <B_s B_s'> = i sign(d) I[|d|] off the diagonal.  Their real
    # part, +-delta_{d0}, is the plain mode count (1/N) sum_k e^{i d phi_k} over
    # the full N-point grid, which vanishes exactly for 0 < |d| < N; summing the
    # cosine over only the N/2 paired modes would leave a spurious
    # ((-1)^d - 1)/N that breaks the anticommutator {A_l, A_m} = 2 delta_lm.
    gamma[:, :, 0, :, 0] = gamma[:, :, 1, :, 1] = 1j * sign * im[:, k]
    gamma[:, :, 0, :, 1] = sign * s[:, k] - c[:, k]  # <A_s B_s'>
    gamma[:, :, 1, :, 0] = sign * s[:, k] + c[:, k]  # <B_s A_s'>
    _held = configs, times, _read_only(gamma.reshape(len(configs), 2 * d_max + 2, 2 * d_max + 2))[0]
    return _held[2]


@factor_scope()
def contraction_table(config, t, d_max: int) -> np.ndarray:
    """Skew contraction matrix Gamma over (A_0, B_0, ..., A_{d_max}, B_{d_max}).

    Gamma[i, j] = <O_i O_j> for i != j with O_{2s} = A_s and O_{2s+1} = B_s;
    the diagonal is zero.  A batch gives a (points, 2 d_max + 2, 2 d_max + 2)
    stack.  The array is read-only.
    """
    configs, times, single = _points(config, t)
    gamma = _contractions(configs, times, d_max)
    return gamma[0] if single else gamma


contraction_table.cache_info = lambda: SimpleNamespace(**_lookups, currsize=int(_held is not None))
_FACTOR_CACHES = (_grid, _dispersion, _dephased, _trig_table)


def pfaffian(m):
    """Pfaffian of a skew-symmetric matrix, or of each matrix of a stack.

    m is one (n, n) matrix, which gives a complex scalar, or a (B, n, n)
    stack, which gives B values; empty matrices have Pfaffian 1.  Skew
    Gaussian elimination with partial pivoting, O(n^3), on a copy of m, run
    on the whole stack at once: one matrix is the stack of one, and a zero
    pivot zeroes only its own matrix.
    """
    a = np.array(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    single = a.ndim == 2
    if single:
        a = a[None]
    count, n = a.shape[0], a.shape[-1]
    if n % 2:
        raise ValueError(f"skew matrices of odd dimension {n} have no Pfaffian")
    scale = np.abs(a).max(axis=(1, 2), initial=1.0)
    if (np.abs(a + a.swapaxes(1, 2)).max(axis=(1, 2), initial=0.0) > 1e-12 * scale).any():
        raise ValueError("matrix is not antisymmetric")
    rows = np.arange(count)
    val = np.ones(count, dtype=complex)
    zero = np.zeros(count, dtype=bool)
    for k in range(0, n - 1, 2):
        pivot = k + 1 + np.abs(a[:, k + 1 :, k]).argmax(axis=1)
        swap = pivot != k + 1
        if swap.any():
            a[rows, k + 1], a[rows, pivot] = a[rows, pivot], a[rows, k + 1]
            a[rows, :, k + 1], a[rows, :, pivot] = a[rows, :, pivot], a[rows, :, k + 1]
            val[swap] = -val[swap]
        zero |= a[:, k + 1, k] == 0.0
        head = np.where(zero, 1.0, a[:, k, k + 1])
        val = val * head  # numpy's in-place complex product rounds differently by length
        if k + 2 < n:
            tau = a[:, k, k + 2 :] / head[:, None]
            col = a[:, k + 2 :, k + 1]
            a[:, k + 2 :, k + 2 :] += tau[:, :, None] * col[:, None, :] - col[:, :, None] * tau[:, None, :]
    val[zero] = 0.0
    return val[0] if single else val


def _quarter_pfaffian(config, d: int, t, ops: list, prefactor: float):
    """prefactor/4 times the Pfaffian of Gamma's rows and columns ops, per point."""
    gamma = contraction_table(config, t, d)  # checks the points first, and d < N
    if d < 1:
        raise ValueError(f"correlator distance must be >= 1, got {d}")
    idx = np.asarray(ops)
    val = prefactor * pfaffian(gamma[..., idx[:, None], idx]) / 4.0
    bad = np.flatnonzero(np.abs(val.imag) > IMAG_TOL)
    if bad.size:
        configs, times, _ = _points(config, t)
        i = bad[0]
        error = NumericalError(f"correlator imaginary residue {np.ravel(val.imag)[i]:.3e} exceeds {IMAG_TOL}")
        raise at_point(error, configs[i], d, times[i])
    return float(val.real) if gamma.ndim == 2 else val.real


def correlator_xx(config, d: int, t):
    """S^x_{l,l+d}(t) = <S_l^x S_{l+d}^x>, from the string B_0 A_1 B_1 ... A_{d-1} B_{d-1} A_d."""
    return _quarter_pfaffian(config, d, t, list(range(1, 2 * d + 1)), 1.0)


def correlator_yy(config, d: int, t):
    """S^y_{l,l+d}(t); the S^x string with A and B swapped, and sign (-1)^d."""
    return _quarter_pfaffian(config, d, t, [i ^ 1 for i in range(1, 2 * d + 1)], float((-1) ** d))


def correlator_zz(config, d: int, t):
    """S^z_{l,l+d}(t); the 4-operator string A_0 B_0 A_d B_d, nothing in between."""
    return _quarter_pfaffian(config, d, t, [0, 1, 2 * d, 2 * d + 1], 1.0)
