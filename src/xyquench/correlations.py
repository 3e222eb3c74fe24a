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
and so is a finite one whose phase is too large to resolve (_phase_bound).
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
# The one memory budget: floats per table of a dephased block's a-tile and
# b-tile and in a finite-time run's mode block (_contractions), and complex
# entries in a chunk's Gamma (cli._evaluate).
CHUNK_ELEMENTS = 40000
# A finite-time run's times form an even grid when each lies this many ulps
# of max |t| or fewer from it (_split).
EVEN_ULPS = 4


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


def _terms(n_sites: int, gamma: float, kt: float, a: np.ndarray) -> tuple:
    """(head, scale, row) of rho22 - rho11, Im rho12 and Re rho12 at each field of the array a.

    Each quantity is head + scale (b - a) row column per mode (mode_blocks),
    with the weight W = tanh(Lambda_a/kT)/Lambda_a of the Gibbs state at a;
    heads and rows are (a's x modes) arrays.
    """
    lam_a = np.array([_dispersion(n_sites, gamma, x) for x in a])
    _, cos, delta, _ = _grid(n_sites, gamma)
    # tanh = 1 where Lambda_a/kT overflows, at kT = 0 or a subnormal kT.  W = 0
    # where Lambda_a = x_a = delta = 0, so every product W enters is 0, and at
    # kT = 0 on exactly degenerate modes, which are uniform and contribute
    # nothing; nearby modes stay finite because |x_a|, |delta|/2 <= Lambda_a.
    live = lam_a > (DEGENERACY_EPS if kt == 0.0 else 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        tanh = np.tanh(np.divide(lam_a, kt, out=np.zeros_like(lam_a), where=live))
    weight = np.divide(tanh, lam_a, out=np.zeros_like(lam_a), where=live)
    wd = weight * delta
    return (weight * (cos + a[:, None]), 0.5, wd * delta), (0.25 * wd, -0.5, wd), (None, 0.25, wd)


@lru_cache(maxsize=None)
def _trig_table(n_sites: int, gamma: float, d_max: int) -> tuple[np.ndarray, np.ndarray]:
    """weight cos(d phi) and weight sin(d phi) for d = 0..d_max, as (offsets x modes) arrays."""
    phi, _, _, weight = _grid(n_sites, gamma)
    angle = np.multiply.outer(np.arange(d_max + 1, dtype=float), phi)
    return _read_only(weight * np.cos(angle), weight * np.sin(angle))


def _tables(n_sites: int, gamma: float, kt: float, a: np.ndarray, d_max: int) -> tuple:
    """(heads, scales, table): the mode-sum tables at each field of the array a.

    table (2 x a's x offsets x modes) holds the weighted cos and sin tables
    (_trig_table) times _terms' rows of C and S, 16 (d_max + 1) bytes per a
    and mode, and heads (2 x a's x offsets) the head terms of C and S, one
    matrix-vector product per a.  I's row equals S's, so its table is S's
    times its own scale.  A finite-time run forms them for its one a, a
    dephased block once per a-tile (_contractions).  The table is a fresh
    buffer, since a finite-time run folds its b into it in place.
    """
    cos, sin = _trig_table(n_sites, gamma, d_max)
    terms = _terms(n_sites, gamma, kt, a)
    table = np.empty((2, a.size, *cos.shape))
    for out, trig, (_, _, row) in zip(table, (cos, sin), terms):
        np.multiply(trig, row[:, None], out=out)
    heads = np.stack((terms[0][0][:, None] @ cos.T, terms[1][0][:, None] @ sin.T))[:, :, 0]
    return heads, [scale for _, scale, _ in terms], table


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
    so w = 1/(2 Lambda_b^2) and v = 0.  A surface meets each b in every
    block of its rows, so the rows are cached per distinct b: 16 bytes per
    mode and field.
    """
    lam = _dispersion(n_sites, gamma, b)
    rows = np.empty((2, lam.size))
    rows[:] = np.where(lam >= SERIES_EPS, 0.5, 0.0)
    _fold(n_sites, gamma, b, *rows, np.zeros(lam.size))
    return _read_only(rows)[0]


def _run_key(point) -> tuple:
    config, t = point
    return config.gamma, config.kt, config.field_before, None if math.isinf(t) else config.field_after


def _blocks(configs: tuple, times: tuple) -> list:
    """(gamma, kT, a, b, rows) per block of consecutive points; rows is a slice, a an array.

    A run of points shares (gamma, kT, a) and, at finite t, b.  A finite-time
    run is a block of its own, with a = (a,) and the float b.  Dephased,
    consecutive runs that share gamma, kT and the sequence of b's form one
    block of A runs by B b's, its points row-major in (a, b): a holds the
    runs' a's and b their b's, as arrays.  A run that shares its b's with no
    neighbour is a block of one run, as every point of a scattered batch is.
    """
    blocks, start = [], 0
    for (gamma, kt, a, b), run in groupby(zip(configs, times), _run_key):
        fields = tuple(c.field_after for c, _ in run)
        rows = slice(start, start + len(fields))
        last = blocks[-1] if blocks else None
        if b is None and last and last[3] == fields and last[:2] == [gamma, kt]:
            last[2].append(a)
            last[4] = slice(last[4].start, rows.stop)
        else:
            blocks.append([gamma, kt, [a], b if b is not None else fields, rows])
        start = rows.stop
    return [(gamma, kt, np.array(a), b if np.ndim(b) == 0 else np.array(b), rows)
            for gamma, kt, a, b, rows in blocks]


def _phase_bound(times, lam: np.ndarray) -> None:
    """Reject the first time whose phase 2 t max Lambda_b reaches 2^33: one ulp of it exceeds 1e-6 rad there."""
    lam_max = float(lam.max())  # in Python floats an overflowing phase is inf, with no warning
    late = [t for t in times if 2.0 * abs(t) * lam_max >= 2.0**33]
    if late:
        raise ValueError(f"time {late[0]} is too large: its phase 2 t max Lambda_b is past 2^33, "
                         "where one ulp exceeds 1e-6 rad")


def _trig(phase: np.ndarray) -> None:
    """sin^2 x, sin x cos x and, given a third row, (cos 2x)/2 in place of the phases x in phase[0].

    All three come from one u = tan x, as u^2/(1 + u^2), u/(1 + u^2) and
    1/(1 + u^2) - 1/2 (float64 tan of 10^6 arguments in [0, 500] took 2.9 ms,
    sin 32 ms: numpy 2.4, AVX-512 x86).  Not 1 - 1/(1 + u^2) for sin^2: it
    cancels at small u, and 1/Lambda^2 would magnify that.
    """
    u, sc = phase[0], phase[1]  # sc holds 1 + u^2 until its own value overwrites it
    np.tan(u, out=u)
    np.multiply(u, u, out=sc)
    sc += 1.0
    if len(phase) > 2:
        np.divide(1.0, sc, out=phase[2])
        phase[2] -= 0.5
    np.divide(u, sc, out=sc)
    u *= sc


def _columns(n: int, gamma: float, b, times: tuple | None = None) -> np.ndarray:
    """The (b, t) columns of mode_blocks' factorised form, a (2 x columns x modes) array.

    That is 8 bytes per column and mode each, and no other (columns x modes)
    array is made.  Dephased (no times), b is an array of fields, one column
    each, and the columns are their rows of _dephased, copied in by one
    stack: a b-tile of a dephased block (_contractions), or its b's in
    mode_blocks.  At finite t, b is the run's one field, a column is a time,
    and the columns carry only the phase, sin^2(2 t Lambda_b) and
    sin(4 t Lambda_b)/2 (_trig); frozen modes hold the series limits (2t)^2
    and 4t.
    """
    if times is None:
        return np.stack([_dephased(n, gamma, x) for x in b], axis=1)
    columns = np.empty((2, len(times), _grid(n, gamma)[1].size))
    sq, half = columns
    lam = _dispersion(n, gamma, b)
    _phase_bound(times, lam)
    t = np.array(times)[:, None]
    np.multiply(2.0 * t, lam, out=sq)
    _trig(columns)
    frozen = lam < SERIES_EPS
    if frozen.any():
        sq[:, frozen] = (2.0 * t) ** 2
        half[:, frozen] = 4.0 * t
    return columns


def _split(times: tuple) -> tuple:
    """(anchors, offsets) with times[j K + k] = anchors[j] + offsets[k], for a finite-time run.

    P times that each lie within EVEN_ULPS ulps of max |t| of the even grid
    t_0 + p Delta, Delta = (t_{P-1} - t_0)/(P - 1), split into K = floor(sqrt P)
    offsets k Delta and J = ceil(P/K) anchors, the times t_{j K}; the J K - P
    sums past the last time stand for no point.  Any other run has anchors =
    its times and offsets = (0,).
    """
    t = np.array(times)
    k = math.isqrt(t.size)
    if k > 1:
        step = (t[-1] - t[0]) / (t.size - 1)
        if np.abs(t - (t[0] + step * np.arange(t.size))).max() <= EVEN_ULPS * np.spacing(np.abs(t).max()):
            return t[::k], step * np.arange(k)
    return t, np.zeros(1)


def _phase_sums(n: int, gamma: float, b: float, times: tuple, table: np.ndarray, r2: int) -> np.ndarray:
    """(points x R) sums over the modes of table's R rows times a finite-time run's phase columns.

    The first r2 rows meet sin^2(2 t Lambda_b), the others sin(4 t Lambda_b)/2.
    The times split as t = A_j + o_k (_split), so the phase is x + y with
    x = 2 A_j Lambda_b and y = 2 o_k Lambda_b, and by angle addition

        sin^2(x + y) = s_y^2 + s_x^2 cos 2y + s_x c_x sin 2y,
        sin(x + y) cos(x + y) = s_x c_x cos 2y + (cos 2x)/2 sin 2y:

    one tan row per anchor and per offset (_trig), J + K of them on an even
    grid and P + 1 otherwise, where the per-point form takes one per point.
    No term is 1 - cos, so small phases keep their relative accuracy.  The
    modes stream in blocks of w = CHUNK_ELEMENTS // (3J + 5K + 2JR) modes (at
    least 1): a block's trig rows, left factors (J x R x 2w) and right
    factors (K x 2w) take at most CHUNK_ELEMENTS floats, and each block is
    freed before the next.  Each block is one stacked (J x R x 2w) @ (2w x K)
    product, one small matrix product per anchor, which keeps rows equal at 1
    and 2 BLAS threads (checked in CI), and one (r2 x w) @ (w x K) product
    for s_y^2, which every anchor shares.  Frozen modes (Lambda_b below
    SERIES_EPS) leave the blocks, their columns zeroed in table (the run's
    own buffer), and add their series limits (2t)^2 and 4t as rank-one terms.
    """
    lam = _dispersion(n, gamma, b)
    _phase_bound(times, lam)
    anchors, offsets = _split(times)
    j, k, rows = anchors.size, offsets.size, table.shape[0]
    frozen = lam < SERIES_EPS
    limits = table[:, frozen].sum(axis=1)
    table[:, frozen] = 0.0
    sums, base = np.zeros((j, rows, k)), np.zeros((r2, k))
    width = max(1, CHUNK_ELEMENTS // (3 * j + 5 * k + 2 * j * rows))
    phases = 2.0 * np.concatenate((anchors, offsets))
    for start in range(0, lam.size, width):
        cols = slice(start, start + width)
        w = lam[cols].size
        trig = np.empty((3, j + k, w))
        np.multiply.outer(phases, lam[cols], out=trig[0])
        _trig(trig)
        # (s^2, s c, (c^2 - s^2)/2) per anchor x and per offset y
        x, y = trig[:, :j].transpose(1, 0, 2), trig[:, j:].transpose(1, 0, 2)
        left = np.empty((j, rows, 2, w))
        np.multiply(x[:, None, :2], table[:r2, None, cols], out=left[:, :r2])
        np.multiply(x[:, None, 1:], table[r2:, None, cols], out=left[:, r2:])
        right = np.empty((k, 2, w))
        np.multiply(y[:, :0:-1], 2.0, out=right)  # (cos 2y, sin 2y)
        base += table[:r2, cols] @ y[:, 0].T
        del trig, x, y
        sums += left.reshape(j, rows, 2 * w) @ right.reshape(k, 2 * w).T
        del left, right
    sums[:, :r2] += base
    sums = sums.transpose(0, 2, 1).reshape(j * k, rows)[: len(times)]
    if frozen.any():
        t = np.array(times)[:, None]
        sums[:, :r2] += (2.0 * t) ** 2 * limits[:r2]
        sums[:, r2:] += 4.0 * t * limits[r2:]
    return sums


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
    modes = _grid(n, configs[0].gamma)[1].size
    population, im, re = np.zeros((3, len(configs), modes))
    for gamma, kt, a, b, rows in _blocks(configs, times):
        if np.ndim(b):
            (w, xw), v = _columns(n, gamma, b), None
        else:
            w, v = _columns(n, gamma, b, times[rows])
            xw = w.copy()
            _fold(n, gamma, b, w, xw, v)
        gap = (b - a[:, None])[..., None]
        for out, (head, scale, row), column in zip((population, im, re), _terms(n, gamma, kt, a), (w, xw, v)):
            out = out[rows].reshape(a.size, -1, modes)
            if column is not None:
                out[:] = scale * gap * row[:, None] * column
            if head is not None:
                out += head[:, None]
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
    S weighs 2 Im rho12 and I weighs -2 Re rho12 by weight sin(d phi).  Per block
    of points (_blocks), each sum over d = 0..d_max is a head plus a bilinear
    form of a's tables (_tables) and a (b, t) column.  Dephased, the columns
    w and x_b w (_columns) meet the C and S tables, so a block of A runs by
    B b's takes its sums from tables of its A a's and columns of its B b's,
    in tiles: a-tiles of CHUNK_ELEMENTS // ((d_max + 1) modes) a's, whose
    tables are formed once, and in each a-tile, b-tiles of CHUNK_ELEMENTS
    // modes b's (10 and 40 at N = 2000 and d_max = 3).  Each pair of tiles
    is one stacked (b's x modes) @ (modes x offsets) product per a and
    table, whose result is the tiles' slice of the block's row-major sums.
    One product over all the tile's a's would be one large GEMM, which
    OpenBLAS threads, and rows then differ between 1 and 2 threads.  Each
    (a, b) pair multiplied is a point of the block.  A finite-time run of
    points sharing (a, b) scales its tables by scale (b - a), folds its
    factors of b into them (_fold) and packs their rows into one buffer,
    leaving out S[0] and I[0], which weigh by sin 0 = 0 and stay 0.  Its
    phase columns, sin^2(2 t Lambda_b) for C and S and sin(4 t Lambda_b)/2
    for I, never exist as (points x modes) arrays: _phase_sums forms the
    sums from the phases of the run's anchors and offsets, in mode blocks.
    A point's sums may move by an ulp with the tile or mode block it lands
    in, but reruns are bitwise equal, also at 1 and 2 BLAS threads (checked
    in CI).  The stack is held read-only (_held) until another replaces it,
    and a later call on points equal to its own for offsets up to its d_max
    slices it, so a chunk's three strings and M_z share one Gamma.
    """
    global _held
    n = configs[0].n_sites
    if not 0 <= d_max < n:
        raise ValueError(f"offset {d_max} outside the ring of {n} sites")
    hit = _held is not None and _held[:2] == (configs, times) and _held[2].shape[-1] >= 2 * d_max + 2
    _lookups["hits" if hit else "misses"] += 1
    if hit:
        return _held[2][:, : 2 * d_max + 2, : 2 * d_max + 2]
    modes = _grid(n, configs[0].gamma)[1].size
    a_tile, b_tile = max(1, CHUNK_ELEMENTS // ((d_max + 1) * modes)), max(1, CHUNK_ELEMENTS // modes)
    sums = np.zeros((len(configs), 3, d_max + 1))
    for gamma, kt, a, b, block in _blocks(configs, times):
        if np.ndim(b):
            out = sums[block].reshape(a.size, b.size, 3, d_max + 1)
            for at in (slice(i, i + a_tile) for i in range(0, a.size, a_tile)):
                heads, scales, table = _tables(n, gamma, kt, a[at], d_max)
                for bs in (slice(i, i + b_tile) for i in range(0, b.size, b_tile)):
                    columns = _columns(n, gamma, b[bs])
                    products = columns[:, None] @ table.transpose(0, 1, 3, 2)
                    del columns
                    gap = (b[bs] - a[at, None])[..., None]
                    for i in range(2):
                        out[at, bs, i] = heads[i][:, None] + scales[i] * gap * products[i]
                del table
            continue
        heads, scales, table = _tables(n, gamma, kt, a, d_max)
        heads, table, gap = heads[:, 0], table[:, 0], b - a[0]
        # I's table in a buffer of its own: one (3 x offsets x modes) array
        # raised the time series' peak RSS by 0.2 MB at N = 40000.
        half = table[1] * (scales[2] * gap)
        table *= np.multiply(scales[:2], gap)[:, None, None]
        _fold(n, gamma, b, table[0], table[1], half)
        table, half = np.concatenate((table[0], table[1, 1:], half[1:])), None
        both = _phase_sums(n, gamma, b, times[block], table, 2 * d_max + 1)
        sums[block, 0] = heads[0] + both[:, : d_max + 1]
        sums[block, 1, 1:] = heads[1, 1:] + both[:, d_max + 1 : 2 * d_max + 1]
        sums[block, 2, 1:] = both[:, 2 * d_max + 1 :]
        del table
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
