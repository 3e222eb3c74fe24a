"""Fermionic contractions, magnetization and string correlators on the ring.

With A_l = c_l^dag + c_l and B_l = c_l^dag - c_l, every equal-time spin
observable reduces to the three elementary contractions <B_l A_m>, <A_l A_m>
and <B_l B_m>.  They depend only on the offset m - l, through three sums over
the N/2 momentum modes: the cos- and sin-weighted halves C and S of <BA> and
the imaginary part I shared by <AA> and <BB>.  The summands are the evolved
per-mode states of mode_blocks, the package's one closed form for them
(dynamics reaches the same states by diagonalization, as a test oracle).
Every factor of that form depends on the field a alone or on (b, t) alone,
so the sums are taken as bilinear forms of per-a rows and per-(b, t)
columns.  contraction_table arranges the sums
into the skew contraction matrix Gamma over (A_0, B_0, A_1, B_1, ..., A_d, B_d),
and each spin-spin correlator is 1/4 times the Pfaffian of the rows and
columns of Gamma that its operator string picks out (Wick's theorem for the
quadratic fermion problem).

Every function here takes one point (config, t) or a batch of points: a
sequence of configs sharing one ring size and a sequence of times, of equal
length, or one of the two as a single value that every point shares; a
sequence may be a list, a tuple or a numpy array.  A NaN time is invalid, and
so is a finite one whose phase 2 t Lambda_b reaches 2^33 (see _batch).
A batch is evaluated as (points x modes) arrays of its (b, t) columns and
gives results with a leading points axis; one point is the batch of one and
gives its entry.  The batches evaluated inside one factor_scope share each
field's mode factors.

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


# Each per-mode factor of the closed form (mode_blocks) depends on a alone
# (_terms) or on (b, t) alone (_batch); only the scalar b - a couples them.
# Both sides read Lambda(h), cached per field while a factor_scope lasts, so a
# run over many (a, b) points computes one row of hypot per distinct field,
# not two per point.


@lru_cache(maxsize=None)
def _grid(n_sites: int, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi_p, cos(phi_p) and delta_p: the module's one read of the grid, cached with the factors."""
    phi, delta = grid_arrays(ChainConfig(n_sites, gamma, 0.0, 0.0, 0.0))
    return phi, np.cos(phi), delta


def _read_only(*arrays):
    for arr in arrays:
        if arr is not None:
            arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _dispersion(n_sites: int, gamma: float, h: float) -> np.ndarray:
    """Lambda(h) per mode, for a field before or after the quench alike."""
    _, cos, delta = _grid(n_sites, gamma)
    return _read_only(np.hypot(cos + h, 0.5 * delta))[0]


def _inverse(lam: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1/Lambda into out on modes at or above SERIES_EPS, 0 on the frozen ones."""
    evolving = lam >= SERIES_EPS
    np.divide(1.0, lam, out=out, where=evolving)
    out[~evolving] = 0.0
    return out


@lru_cache(maxsize=1)
def _terms(n_sites: int, gamma: float, kt: float, a: float) -> tuple:
    """(head, scale, row) of rho22 - rho11, Im rho12 and Re rho12 at field a.

    Each quantity is head + scale (b - a) row column per mode (mode_blocks),
    with the weight W = tanh(Lambda_a/kT)/Lambda_a of the Gibbs state at a.
    Only the last a is kept: a surface row or a time series meets its a in
    one stretch of consecutive batches.
    """
    lam_a, (_, cos, delta) = _dispersion(n_sites, gamma, a), _grid(n_sites, gamma)
    if kt == 0.0:
        # Exactly degenerate modes are uniform at kT = 0 and contribute
        # nothing; nearby modes stay finite because |x_a|, |delta|/2 <= Lambda_a.
        live = lam_a > DEGENERACY_EPS
        weight = np.where(live, 1.0 / np.where(live, lam_a, 1.0), 0.0)
    else:
        arg = lam_a / kt
        small = arg < 1e-6
        weight = np.empty_like(lam_a)
        np.divide(np.tanh(arg), lam_a, out=weight, where=~small)
        weight[small] = (1.0 - arg[small] ** 2 / 3.0) / kt
    wd = weight * delta
    head, wdd, quarter, wd = _read_only(weight * (cos + a), wd * delta, 0.25 * wd, wd)
    return (head, 0.5, wdd), (quarter, -0.5, wd), (None, 0.25, wd)


@lru_cache(maxsize=None)
def _trig_table(n_sites: int, gamma: float, d_max: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(d phi) and sin(d phi) for d = 0..d_max, as (offsets x modes) arrays."""
    angle = np.multiply.outer(np.arange(d_max + 1, dtype=float), _grid(n_sites, gamma)[0])
    return _read_only(np.cos(angle), np.sin(angle))


@lru_cache(maxsize=1)
def _tables(n_sites: int, gamma: float, kt: float, a: float, d_max: int) -> list:
    """(head @ table.T, scale, (table * row).T) of each quantity with its trig table.

    The tables are those of C, S and I: cos, sin and sin (see _gamma).
    Only the last a is kept, as for _terms.
    """
    cos, sin = _trig_table(n_sites, gamma, d_max)
    (head_c, scale_c, row_c), (head_s, scale_s, row_s), (_, scale_i, _) = _terms(n_sites, gamma, kt, a)
    weighted_sin = (sin * row_s).T  # Im rho12 and Re rho12 share their row
    return [(head_c @ cos.T, scale_c, (cos * row_c).T), (head_s @ sin.T, scale_s, weighted_sin),
            (None, scale_i, weighted_sin)]


def _runs(keys):
    """(key, rows) per run of consecutive equal keys; rows is a slice."""
    start = 0
    for key, run in groupby(keys):
        stop = start + sum(1 for _ in run)
        yield key, slice(start, stop)
        start = stop


@lru_cache(maxsize=1)
def _batch(configs: tuple, times: tuple) -> tuple[list, tuple]:
    """(runs, columns): a batch in the factorised form of mode_blocks.

    runs holds (gamma, kT, a), rows, b - a per point as a column and _terms,
    per run of consecutive points that share (gamma, kT, a).  columns holds w,
    x_b w and v as (points x modes) arrays; v is None when every point is
    dephased, where v = 0.  At finite t both sines come from one
    u = tan(2 t Lambda_b), sin^2(2 t Lambda_b) = u^2/(1 + u^2) and
    sin(4 t Lambda_b) = 2u/(1 + u^2), in the columns' own buffers: no other
    (points x modes) array is made.  The last batch is cached, so its
    contraction table and its magnetization share it.
    """
    _batch.cache_clear()  # free the previous batch before allocating this one
    n = configs[0].n_sites
    cos = _grid(n, configs[0].gamma)[1]  # cos(phi_p) does not depend on gamma
    w, xw = np.empty((2, len(configs), n // 2))
    v = None if all(map(math.isinf, times)) else np.zeros_like(w)
    for key, rows in _runs([None if math.isinf(t) else (c.gamma, c.field_after)
                            for c, t in zip(configs, times)]):
        if key is None:  # dephased points, whatever their b: w = 1/(2 Lambda_b^2)
            np.stack([_dispersion(n, c.gamma, c.field_after) for c in configs[rows]], out=w[rows])
            _inverse(w[rows], out=w[rows])
            w[rows] *= w[rows]
            w[rows] *= 0.5
            np.add.outer([c.field_after for c in configs[rows]], cos, out=xw[rows])
            xw[rows] *= w[rows]
            continue
        lam = _dispersion(n, *key)
        lam_max = float(lam.max())  # in Python floats an overflowing phase is inf, with no warning
        late = [t for t in times[rows] if 2.0 * abs(t) * lam_max >= 2.0**33]
        if late:  # past 2^33 one ulp of the phase exceeds 1e-6 rad
            raise ValueError(f"time {late[0]} is too large: its phase 2 t max Lambda_b is past 2^33, "
                             "where one ulp exceeds 1e-6 rad")
        inv = _inverse(lam, np.empty_like(lam))
        t = np.array(times[rows])[:, None]
        # u in v, u^2 in w and 1 + u^2 in xw, which its own value overwrites
        # below.  Not 1 - 1/(1 + u^2): it cancels at small u, and 1/Lambda^2
        # would magnify that.
        u, sq, den = v[rows], w[rows], xw[rows]
        np.multiply(2.0 * t, lam, out=u)
        np.tan(u, out=u)
        np.multiply(u, u, out=sq)
        np.add(sq, 1.0, out=den)
        sq /= den
        sq *= inv
        sq *= inv
        u /= den
        u *= 2.0 * inv
        frozen = lam < SERIES_EPS
        if frozen.any():  # frozen modes take the series limits (2t)^2 and 4t
            w[rows, frozen] = (2.0 * t) ** 2
            v[rows, frozen] = 4.0 * t
        np.multiply(w[rows], cos + key[1], out=xw[rows])
    runs = [(key, rows, np.array([c.field_after - key[2] for c in configs[rows]])[:, None],
             _terms(n, *key)) for key, rows in _runs([(c.gamma, c.kt, c.field_before) for c in configs])]
    return runs, _read_only(w, xw, v)


_open_scopes = 0
_ended_lookups = (0, 0)  # contraction_table's hits and misses in the runs that have ended


@contextmanager
def factor_scope():
    """Share the per-a and per-b factors among the batches evaluated inside.

    A run evaluates all its batches in one scope, so Lambda(h) is computed
    once per distinct (N, gamma, h) of the run, for a and b alike.  Scopes
    nest; the caches (_FACTOR_CACHES: the factors, the trig tables and Gamma)
    are emptied when the outermost one ends, so nothing a run caches outlives
    it.  Each public function here runs in a scope, so a call made outside
    any scope is a run of its own and leaves nothing cached.
    """
    global _open_scopes, _ended_lookups
    _open_scopes += 1
    try:
        yield
    finally:
        _open_scopes -= 1
        if not _open_scopes:
            _ended_lookups = _table_lookups()[:2]
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
    x_b w or v that depends on (b, t) alone (_batch), with
    w = sin^2(2 t Lambda_b)/Lambda_b^2 and v = sin(4 t Lambda_b)/Lambda_b.
    Dephased, w = 1/(2 Lambda_b^2) and v = 0; modes with Lambda_b below
    SERIES_EPS take the series limits w = (2t)^2, v = 4t and never dephase
    (w = 0).  The contraction sums read the same factors as bilinear forms
    (_gamma).  For a batch the arrays are (points x modes).  They are
    read-only.
    """
    configs, times, single = _points(config, t)
    runs, columns = _batch(configs, times)
    n = configs[0].n_sites
    population, im, re = np.zeros((3, len(configs), n // 2))
    for _, rows, gap, terms in runs:
        for out, (head, scale, row), column in zip((population, im, re), terms, columns):
            if column is not None:
                out[rows] = scale * gap * row * column[rows]
            if head is not None:
                out[rows] += head
    blocks = ModeBlocks(*_read_only(population, re + 1j * im))
    return ModeBlocks(*(x[0] for x in blocks)) if single else blocks


@factor_scope()
def magnetization_z(config, t):
    """Transverse magnetization per site, M_z(t) = (1/N) sum_l <S_l^z> = C[0]/2.

    That is the mode sum of rho22 - rho11 over N; C[0] weighs it by cos(0) = 1.
    """
    configs, times, single = _points(config, t)
    runs, columns = _batch(configs, times)
    n = configs[0].n_sites
    mz = np.empty(len(configs))
    for _, rows, gap, terms in runs:
        head, scale, row = terms[0]
        column = columns[0][rows, None, :]
        mz[rows] = head.sum() + scale * gap[:, 0] * np.matmul(column, row[:, None])[:, 0, 0]
    mz /= n
    return float(mz[0]) if single else mz


@lru_cache(maxsize=1)  # the last chunk's Gamma, which its three strings share
def _gamma(configs: tuple, times: tuple, d_max: int) -> np.ndarray:
    """contraction_table's stack for the points of _points, from the sums C, S and I.

    <B_l A_{l+d}> = C[d] + S[d] and <A_l A_{l+d}> - delta_{d0} = i I[d]; S and I
    are odd in d, C is even.  Per mode, C weighs 2(rho22 - rho11) by cos(d phi),
    S weighs 4 Im rho12 and I weighs -4 Re rho12 by sin(d phi).  Per run of
    points sharing a, each sum over d = 0..d_max is head @ table.T plus the
    bilinear form column @ (table * row).T, taken as one (1 x modes) @
    (modes x offsets) product per point: the same BLAS call for every batch
    size, so a point's sums do not depend on its batch.
    """
    n = configs[0].n_sites
    if not 0 <= d_max < n:
        raise ValueError(f"offset {d_max} outside the ring of {n} sites")
    runs, columns = _batch(configs, times)
    sums = np.zeros((3, len(configs), d_max + 1))
    for key, rows, gap, _ in runs:
        for out, (head, scale, table), column in zip(sums, _tables(n, *key, d_max), columns):
            if head is not None:
                out[rows] = head
            if column is not None:
                out[rows] += scale * gap * np.matmul(column[rows, None, :], table)[:, 0]
    c, s, im = 2.0 * sums[0] / n, 4.0 * sums[1] / n, -4.0 * sums[2] / n
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
    return _read_only(gamma.reshape(len(configs), 2 * d_max + 2, 2 * d_max + 2))[0]


@factor_scope()
def contraction_table(config, t, d_max: int) -> np.ndarray:
    """Skew contraction matrix Gamma over (A_0, B_0, ..., A_{d_max}, B_{d_max}).

    Gamma[i, j] = <O_i O_j> for i != j with O_{2s} = A_s and O_{2s+1} = B_s;
    the diagonal is zero.  A batch gives a (points, 2 d_max + 2, 2 d_max + 2)
    stack.  The array is cached while the run lasts and is read-only.
    """
    configs, times, single = _points(config, t)
    gamma = _gamma(configs, times, d_max)
    return gamma[0] if single else gamma


def _table_lookups():
    """_gamma.cache_info(), with the hits and misses that each run's cache_clear reset."""
    info = _gamma.cache_info()
    return info._replace(hits=info.hits + _ended_lookups[0], misses=info.misses + _ended_lookups[1])


contraction_table.cache_info = _table_lookups
_FACTOR_CACHES = (_grid, _dispersion, _terms, _tables, _batch, _trig_table, _gamma)


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
