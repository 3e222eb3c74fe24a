"""Fermionic contractions, magnetization and string correlators on the ring.

With A_l = c_l^dag + c_l and B_l = c_l^dag - c_l, every equal-time spin
observable reduces to the three elementary contractions <B_l A_m>, <A_l A_m>
and <B_l B_m>.  They depend only on the offset m - l, through three sums over
the N/2 momentum modes: the cos- and sin-weighted halves C and S of <BA> and
the imaginary part I shared by <AA> and <BB>.  The summands are the evolved
per-mode states of mode_blocks, the package's one closed form for them
(dynamics reaches the same states by diagonalization, as a test oracle).
contraction_table arranges the sums
into the skew contraction matrix Gamma over (A_0, B_0, A_1, B_1, ..., A_d, B_d),
and each spin-spin correlator is 1/4 times the Pfaffian of the rows and
columns of Gamma that its operator string picks out (Wick's theorem for the
quadratic fermion problem).

Every function here takes one point (config, t) or a batch of points: a
sequence of configs sharing one ring size and a sequence of times, of equal
length, or one of the two as a single value that every point shares.  A batch
is evaluated as (points x modes) arrays and gives results with a leading
points axis; one point is the batch of one and gives its entry.  Pass
sequences to the cached contraction_table as tuples.

Time arguments accept math.inf, which selects the dephased long-time limit:
sin^2(2 t Lambda) -> 1/2 and sin(4 t Lambda) -> 0 mode by mode, while modes
with Lambda(after) below the series threshold never evolve and keep their
initial value.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, at_point
from .lattice import ChainConfig, grid_arrays, momenta

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
    if len({c.n_sites for c in configs}) > 1:
        raise ValueError("the points of a batch must share one ring size")
    return configs, times, one_config and one_time


class ModeBlocks(NamedTuple):
    """Evolved (vacuum, pair) density block of every mode, per point."""

    population: np.ndarray  # rho22 - rho11, pair minus vacuum occupation
    coherence: np.ndarray  # rho12 = <vacuum| rho |pair>


class _Factors(NamedTuple):
    """The t-independent per-mode vectors of one config (see mode_blocks)."""

    lam_b: np.ndarray
    evolving: np.ndarray  # Lambda_b at or above SERIES_EPS
    inv_lam_b: np.ndarray  # 1/Lambda_b on evolving modes, 0 elsewhere
    w_inf: np.ndarray  # the dephased w
    p0: np.ndarray
    p1: np.ndarray
    r1: np.ndarray
    i0: np.ndarray
    i1: np.ndarray


@lru_cache(maxsize=1)
def _grid(n_sites: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """cos(phi_p) and delta_p for one batch; _blocks clears it when the batch is done."""
    phi, delta = grid_arrays(ChainConfig(n_sites, gamma, 0.0, 0.0, 0.0))
    return np.cos(phi), delta


@lru_cache(maxsize=2)
def _factors(config: ChainConfig) -> _Factors:
    cos, delta = _grid(config.n_sites, config.gamma)
    a, b = config.field_before, config.field_after
    x_a, x_b = cos + a, cos + b
    lam_a = np.hypot(x_a, 0.5 * delta)
    lam_b = np.hypot(x_b, 0.5 * delta)

    if config.kt == 0.0:
        # Exactly degenerate modes are uniform at kT = 0 and contribute
        # nothing; nearby modes stay finite because |x_a|, |delta|/2 <= Lambda_a.
        live = lam_a > DEGENERACY_EPS
        weight = np.where(live, 1.0 / np.where(live, lam_a, 1.0), 0.0)
    else:
        arg = lam_a / config.kt
        small = arg < 1e-6
        weight = np.empty_like(lam_a)
        np.divide(np.tanh(arg), lam_a, out=weight, where=~small)
        weight[small] = (1.0 - arg[small] ** 2 / 3.0) / config.kt

    evolving = lam_b >= SERIES_EPS
    inv_lam_b = np.divide(1.0, lam_b, out=np.zeros_like(lam_b), where=evolving)
    wd = weight * delta
    factors = _Factors(
        lam_b=lam_b,
        evolving=evolving,
        inv_lam_b=inv_lam_b,
        w_inf=0.5 * inv_lam_b**2,
        p0=weight * x_a,
        p1=0.5 * (b - a) * wd * delta,
        r1=0.25 * (b - a) * wd,
        i0=0.25 * wd,
        i1=0.5 * (a - b) * wd * x_b,
    )
    for arr in factors:
        arr.flags.writeable = False
    return factors


def mode_blocks(config, t) -> ModeBlocks:
    """Per-mode state after the quench a -> b, in the closed form of Barouch & McCoy.

    Each momentum subspace has basis (vacuum, pair, single +p, single -p);
    only the (vacuum, pair) block enters the contractions.  The Gibbs state
    at field a is weighted by tanh(Lambda_a/kT)/Lambda_a (kT = 0 allowed) and
    rotates under field b at frequency 4 Lambda_b; t = math.inf keeps its
    dephased part.  Per mode,

        rho22 - rho11 = p0 + p1 w,    rho12 = r1 v + i (i0 + i1 w),

    where p0, p1, r1, i0, i1 depend on the config only and are computed once
    per config, and w = sin^2(2 t Lambda_b)/Lambda_b^2 and
    v = sin(4 t Lambda_b)/Lambda_b are the only per-point work.  Dephased,
    w = 1/(2 Lambda_b^2) and v = 0; modes with Lambda_b below SERIES_EPS
    take the series limits w = (2t)^2, v = 4t and never dephase (w = 0).
    For a batch the arrays are (points x modes).  They are read-only.
    """
    configs, times, single = _points(config, t)
    population, re, im = _blocks(configs, times)
    blocks = ModeBlocks(population, re + 1j * im)
    blocks.coherence.flags.writeable = False
    return ModeBlocks(*(x[0] for x in blocks)) if single else blocks


@lru_cache(maxsize=1)
def _blocks(configs: tuple, times: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho22 - rho11, Re rho12 and Im rho12 of a batch, as (points x modes) arrays.

    The last batch is cached, so its contraction table and its magnetization
    share one evaluation.
    """
    _blocks.cache_clear()  # free the previous batch before allocating this one
    shape = (len(configs), configs[0].n_sites // 2)
    population, re, im = np.empty(shape), np.empty(shape), np.empty(shape)
    start = 0
    for config, run in groupby(configs):  # runs of points that share a config
        rows = slice(start, start + len(list(run)))
        start = rows.stop
        f = _factors(config)
        t = np.array(times[rows])[:, None]
        dephased = np.isinf(t)
        if dephased.all():
            w, v = f.w_inf, 0.0
        else:
            t[dephased] = 0.0
            arg = 2.0 * t * f.lam_b
            w = np.sin(arg)
            w *= f.inv_lam_b
            w *= w
            arg *= 2.0
            v = np.sin(arg, out=arg)
            v *= f.inv_lam_b
            if not f.evolving.all():  # frozen modes take the series limits (2t)^2 and 4t
                w = np.where(f.evolving, w, (2.0 * t) ** 2)
                v = np.where(f.evolving, v, 4.0 * t)
            if dephased.any():
                w = np.where(dephased, f.w_inf, w)
                v = np.where(dephased, 0.0, v)
        np.multiply(f.p1, w, out=population[rows])
        population[rows] += f.p0
        np.multiply(f.r1, v, out=re[rows])
        np.multiply(f.i1, w, out=im[rows])
        im[rows] += f.i0
    _grid.cache_clear()
    for arr in (population, re, im):
        arr.flags.writeable = False
    return population, re, im


@lru_cache(maxsize=8)
def _trig_table(n_sites: int, d_max: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(d phi) and sin(d phi) for d = 0..d_max, as (modes x offsets) arrays."""
    angle = np.multiply.outer(momenta(n_sites), np.arange(d_max + 1, dtype=float))
    cos, sin = np.cos(angle), np.sin(angle)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def _sums(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    # A stack of (1 x modes) @ (modes x offsets) products, one per point: the
    # same BLAS call for every batch size, so a point's sums do not depend on
    # the batch it is in.
    return np.matmul(x[:, None, :], table)[:, 0]


def _offset_sums(configs, times, d_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C, S and I at offsets 0..d_max, as (points x offsets) arrays.

    <B_l A_{l+d}> = C[d] + S[d] and <A_l A_{l+d}> - delta_{d0} = i I[d]; S and I
    are odd in d, C is even.  Per mode, C weighs 2(rho22 - rho11), S weighs
    4 Im rho12 and I weighs -4 Re rho12.
    """
    population, re, im = _blocks(configs, times)
    n = configs[0].n_sites
    cos, sin = _trig_table(n, d_max)
    return 2.0 * _sums(population, cos) / n, 4.0 * _sums(im, sin) / n, -4.0 * _sums(re, sin) / n


def magnetization_z(config, t):
    """Transverse magnetization per site, M_z(t) = (1/N) sum_l <S_l^z> = C[0]/2."""
    configs, times, single = _points(config, t)
    population, n = _blocks(configs, times)[0], configs[0].n_sites
    mz = 0.5 * (2.0 * _sums(population, _trig_table(n, 0)[0]) / n)[:, 0]
    return float(mz[0]) if single else mz


def _check_offset(config: ChainConfig, d_max: int):
    if not 0 <= d_max < config.n_sites:
        raise ValueError(f"offset {d_max} outside the ring of {config.n_sites} sites")


@lru_cache(maxsize=4)
def contraction_table(config, t, d_max: int) -> np.ndarray:
    """Skew contraction matrix Gamma over (A_0, B_0, ..., A_{d_max}, B_{d_max}).

    Gamma[i, j] = <O_i O_j> for i != j with O_{2s} = A_s and O_{2s+1} = B_s;
    the diagonal is zero.  A batch gives a (points, 2 d_max + 2, 2 d_max + 2)
    stack.  The array is cached and read-only.
    """
    configs, times, single = _points(config, t)
    _check_offset(configs[0], d_max)
    site = np.arange(d_max + 1)
    c, s, im = _offset_sums(configs, times, d_max)
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
    gamma = gamma.reshape(len(configs), 2 * d_max + 2, 2 * d_max + 2)
    gamma.flags.writeable = False
    return gamma[0] if single else gamma


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
            perm = np.tile(np.arange(n), (count, 1))
            perm[rows, k + 1], perm[rows, pivot] = pivot, k + 1
            a = a[rows[:, None, None], perm[:, :, None], perm[:, None, :]]
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


def _check_distance(config: ChainConfig, d: int):
    if d < 1:
        raise ValueError(f"correlator distance must be >= 1, got {d}")
    if d >= config.n_sites:
        raise ValueError(f"distance {d} outside the ring of {config.n_sites} sites")


def _quarter_pfaffian(config, d: int, t, ops: list, prefactor: float):
    """prefactor/4 times the Pfaffian of Gamma's rows and columns ops, per point."""
    configs, times, single = _points(config, t)
    _check_distance(configs[0], d)
    idx = np.asarray(ops)
    gamma = contraction_table(configs, times, d)
    val = prefactor * pfaffian(gamma[:, idx[:, None], idx[None, :]]) / 4.0
    bad = np.flatnonzero(np.abs(val.imag) > IMAG_TOL)
    if bad.size:
        i = bad[0]
        error = NumericalError(f"correlator imaginary residue {val.imag[i]:.3e} exceeds {IMAG_TOL}")
        raise at_point(error, configs[i], d, times[i])
    return float(val.real[0]) if single else val.real


def correlator_xx(config, d: int, t):
    """S^x_{l,l+d}(t) = <S_l^x S_{l+d}^x>, from the string B_0 A_1 B_1 ... A_{d-1} B_{d-1} A_d."""
    return _quarter_pfaffian(config, d, t, list(range(1, 2 * d + 1)), 1.0)


def correlator_yy(config, d: int, t):
    """S^y_{l,l+d}(t); the S^x string with A and B swapped, and sign (-1)^d."""
    return _quarter_pfaffian(config, d, t, [i ^ 1 for i in range(1, 2 * d + 1)], float((-1) ** d))


def correlator_zz(config, d: int, t):
    """S^z_{l,l+d}(t); the 4-operator string A_0 B_0 A_d B_d, nothing in between."""
    return _quarter_pfaffian(config, d, t, [0, 1, 2 * d, 2 * d + 1], 1.0)
