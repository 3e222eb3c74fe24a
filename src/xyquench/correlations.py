"""Fermionic contractions, magnetization and string correlators on the ring.

With A_l = c_l^dag + c_l and B_l = c_l^dag - c_l, every equal-time spin
observable reduces to the three elementary contractions <B_l A_m>, <A_l A_m>
and <B_l B_m>.  They depend only on the offset m - l, through three sums over
the N/2 momentum modes: the cos- and sin-weighted halves C and S of <BA> and
the imaginary part I shared by <AA> and <BB>.  contraction_table arranges them
into the skew contraction matrix Gamma over (A_0, B_0, A_1, B_1, ..., A_d, B_d),
and each spin-spin correlator is 1/4 times the Pfaffian of the rows and
columns of Gamma that its operator string picks out (Wick's theorem for the
quadratic fermion problem).

Time arguments accept math.inf, which selects the dephased long-time limit:
sin^2(2 t Lambda) -> 1/2 and sin(4 t Lambda) -> 0 mode by mode, while modes
with Lambda(after) below the series threshold never evolve and keep their
initial value.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dynamics import DEGENERACY_EPS, SERIES_EPS
from .errors import NumericalError
from .lattice import ChainConfig, grid_arrays

# Correlators are real; anything above this imaginary residue means the
# contraction matrix is inconsistent and the result cannot be trusted.
IMAG_TOL = 1e-10


class _ModeData(NamedTuple):
    """Per-mode arrays entering every contraction sum at fixed (config, t)."""

    phi: np.ndarray
    delta: np.ndarray
    x_a: np.ndarray  # cos(phi) + a
    x_b: np.ndarray  # cos(phi) + b
    weight: np.ndarray  # tanh(Lambda_a/kT)/Lambda_a with kT = 0 handled
    w: np.ndarray  # sin^2(2 t Lambda_b)/Lambda_b^2, dephased to 1/(2 Lambda_b^2)
    v: np.ndarray  # sin(4 t Lambda_b)/Lambda_b, dephased to 0


@lru_cache(maxsize=16)
def _mode_data(config: ChainConfig, t: float) -> _ModeData:
    phi, delta = grid_arrays(config)
    a, b = config.field_before, config.field_after
    x_a = np.cos(phi) + a
    x_b = np.cos(phi) + b
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
    safe_lam_b = np.where(evolving, lam_b, 1.0)
    if math.isinf(t):
        w = np.where(evolving, 0.5 / safe_lam_b**2, 0.0)
        v = np.zeros_like(lam_b)
    else:
        s = np.where(evolving, np.sin(2.0 * t * lam_b) / safe_lam_b, 2.0 * t)
        w = s * s
        v = np.where(evolving, np.sin(4.0 * t * lam_b) / safe_lam_b, 4.0 * t)
    return _ModeData(phi, delta, x_a, x_b, weight, w, v)


def _offset_sums(config: ChainConfig, t: float, offsets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C, S and I at each offset d, from one (modes x offsets) cos/sin table.

    <B_l A_{l+d}> = C[d] + S[d] and <A_l A_{l+d}> - delta_{d0} = i I[d]; S and I
    are odd in d, C is even.
    """
    md = _mode_data(config, t)
    a, b = config.field_before, config.field_after
    angle = np.multiply.outer(md.phi, np.asarray(offsets, dtype=float))
    cos, sin = np.cos(angle), np.sin(angle)
    n = config.n_sites
    c = (md.weight * (md.delta**2 * (b - a) * md.w + 2.0 * md.x_a)) @ cos / n
    s = (md.weight * md.delta * (1.0 + 2.0 * (a - b) * md.x_b * md.w)) @ sin / n
    im = (md.weight * md.delta * (a - b) * md.v) @ sin / n
    return c, s, im


def _check_offset(config: ChainConfig, d: int):
    if not -config.n_sites < d < config.n_sites:
        raise ValueError(f"offset {d} outside the ring of {config.n_sites} sites")


def contraction_ba(config: ChainConfig, d: int, t: float) -> float:
    """<B_l A_{l+d}> at time t (math.inf for the dephased limit).

    Negative d is allowed; only the sin-weighted half changes sign.
    """
    _check_offset(config, d)
    c, s, _ = _offset_sums(config, t, (d,))
    return float(c[0] + s[0])


def contraction_aa(config: ChainConfig, d: int, t: float) -> complex:
    """<A_l A_{l+d}>: delta_{d0} plus a purely imaginary quench part.

    The real part is the plain mode count (1/N) sum_k e^{i d phi_k} over the
    full N-point grid, which vanishes exactly for 0 < |d| < N; summing the
    cosine over only the N/2 paired modes would leave a spurious
    ((-1)^d - 1)/N offset that breaks the anticommutator {A_l, A_m} = 2 delta_lm.
    """
    _check_offset(config, d)
    return complex(1.0 if d == 0 else 0.0, _offset_sums(config, t, (d,))[2][0])


def contraction_bb(config: ChainConfig, d: int, t: float) -> complex:
    """<B_l B_{l+d}>: -delta_{d0} plus the same imaginary part as contraction_aa."""
    _check_offset(config, d)
    return complex(-1.0 if d == 0 else 0.0, _offset_sums(config, t, (d,))[2][0])


def magnetization_z(config: ChainConfig, t: float) -> float:
    """Transverse magnetization per site, M_z(t) = (1/N) sum_l <S_l^z> = C[0]/2."""
    return 0.5 * float(_offset_sums(config, t, (0,))[0][0])


@lru_cache(maxsize=32)
def contraction_table(config: ChainConfig, t: float, d_max: int) -> np.ndarray:
    """Skew contraction matrix Gamma over (A_0, B_0, ..., A_{d_max}, B_{d_max}).

    Gamma[i, j] = <O_i O_j> for i != j with O_{2s} = A_s and O_{2s+1} = B_s;
    the diagonal is zero.  The array is cached and read-only.
    """
    site = np.arange(d_max + 1)
    c, s, im = _offset_sums(config, t, site)
    offset = site[None, :] - site[:, None]
    k, sign = np.abs(offset), np.sign(offset)
    gamma = np.empty((d_max + 1, 2, d_max + 1, 2), dtype=complex)
    gamma[:, 0, :, 0] = gamma[:, 1, :, 1] = 1j * sign * im[k]  # <A_s A_s'>, <B_s B_s'>
    gamma[:, 0, :, 1] = sign * s[k] - c[k]  # <A_s B_s'>
    gamma[:, 1, :, 0] = sign * s[k] + c[k]  # <B_s A_s'>
    gamma = gamma.reshape(2 * d_max + 2, 2 * d_max + 2)
    gamma.flags.writeable = False
    return gamma


def pfaffian(m) -> complex:
    """Pfaffian of a skew-symmetric matrix; empty matrices have Pfaffian 1.

    Skew Gaussian elimination with partial pivoting, O(n^3), on a copy of m.
    """
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n % 2:
        raise ValueError(f"skew matrices of odd dimension {n} have no Pfaffian")
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale and np.max(np.abs(a + a.T)) > 1e-12 * max(scale, 1.0):
        raise ValueError("matrix is not antisymmetric")
    val = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        pivot = k + 1 + int(np.argmax(np.abs(a[k + 1 :, k])))
        if pivot != k + 1:
            a[[k + 1, pivot], :] = a[[pivot, k + 1], :]
            a[:, [k + 1, pivot]] = a[:, [pivot, k + 1]]
            val = -val
        if a[k + 1, k] == 0.0:
            return 0.0 + 0.0j
        val *= a[k, k + 1]
        if k + 2 < n:
            tau = a[k, k + 2 :] / a[k, k + 1]
            col = a[k + 2 :, k + 1]
            a[k + 2 :, k + 2 :] += np.outer(tau, col) - np.outer(col, tau)
    return val


def _quarter_pfaffian(gamma: np.ndarray, ops: list, prefactor: float) -> float:
    val = prefactor * pfaffian(gamma[np.ix_(ops, ops)]) / 4.0
    if abs(val.imag) > IMAG_TOL:
        raise NumericalError(f"correlator imaginary residue {val.imag:.3e} exceeds {IMAG_TOL}")
    return float(val.real)


def _check_distance(config: ChainConfig, d: int):
    if d < 1:
        raise ValueError(f"correlator distance must be >= 1, got {d}")
    if d >= config.n_sites:
        raise ValueError(f"distance {d} outside the ring of {config.n_sites} sites")


def correlator_xx(config: ChainConfig, d: int, t: float) -> float:
    """S^x_{l,l+d}(t) = <S_l^x S_{l+d}^x>, from the string B_0 A_1 B_1 ... A_{d-1} B_{d-1} A_d."""
    _check_distance(config, d)
    return _quarter_pfaffian(contraction_table(config, t, d), list(range(1, 2 * d + 1)), 1.0)


def correlator_yy(config: ChainConfig, d: int, t: float) -> float:
    """S^y_{l,l+d}(t); the S^x string with A and B swapped, and sign (-1)^d."""
    _check_distance(config, d)
    ops = [i ^ 1 for i in range(1, 2 * d + 1)]
    return _quarter_pfaffian(contraction_table(config, t, d), ops, float((-1) ** d))


def correlator_zz(config: ChainConfig, d: int, t: float) -> float:
    """S^z_{l,l+d}(t); the 4-operator string A_0 B_0 A_d B_d, nothing in between."""
    _check_distance(config, d)
    return _quarter_pfaffian(contraction_table(config, t, d), [0, 1, 2 * d, 2 * d + 1], 1.0)
