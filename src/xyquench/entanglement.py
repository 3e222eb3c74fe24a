"""Two-site reduced states and Wootters concurrence / entanglement of formation.

Translation invariance plus the parity symmetry of the chain force the
reduced state of any site pair into X form in the basis (uu, ud, du, dd),
u being the +1 eigenstate of sigma^z:

    [rho11   .     .    rho14]
    [  .   rho22 rho23    .  ]
    [  .   rho23 rho33    .  ]
    [rho14   .     .    rho44]

with off-diagonals built from the same-axis correlators, rho14 = Sx - Sy and
rho23 = Sx + Sy, taken as real.  That holds in equilibrium and in the
dephased t -> infinity state.  After a quench, at finite t, rho14 also has an
imaginary part, carried by <S^x S^y> + <S^y S^x>, which this assembly drops
(Im rho23 stays 0).  The assembly, its clamps and gates and the closed form
are written once, over arrays of points (x_concurrences); two_site_state and
concurrence_x are its one-point calls, and concurrence_general checks it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import InvalidStateError

# Diagonal entries in [-CLAMP_TOL, 0) are rounding debris and get clamped to
# zero (counted in clamp_warnings); anything more negative is a real
# positivity violation and raises, and so does a trace more than this off 1.
CLAMP_TOL = 1e-10
# An off-diagonal entry may pass its X-state bound, |rho14| <= sqrt(rho11 rho44)
# or |rho23| <= rho22, by this much before it raises.
X_POSITIVITY_TOL = 1e-8
# A concurrence may exceed 1 by this much, rounding; the positivity gates'
# slack lets a state past it through, and the C gate rejects it.
C_TOL = 1e-12

clamp_warnings = 0

_SY_SY = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
).real  # sigma^y x sigma^y is real: diag +/-1 on the anti-diagonal


@dataclass(frozen=True)
class TwoSiteState:
    """X-form two-qubit density matrix in the (uu, ud, du, dd) basis."""

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: float
    rho23: float

    def matrix(self) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        out[0, 0], out[1, 1], out[2, 2], out[3, 3] = (
            self.rho11,
            self.rho22,
            self.rho33,
            self.rho44,
        )
        out[0, 3] = out[3, 0] = self.rho14
        out[1, 2] = out[2, 1] = self.rho23
        return out


def _finite(labels, values) -> list:
    """The checks that each row of values is finite, named by labels."""
    return [(~np.isfinite(row), True, f"{label} = {{}} is not finite", row) for label, row in zip(labels, values)]


def _settle(checks: list) -> None:
    """Warn for each clamp in point order, and raise at the first point that fails a gate.

    A check is (mask, fatal, text, *values) over the points, in the order one point meets them; its
    message is text formatted with the point's values.  A clamp counts in clamp_warnings.  The failing
    point, the error's index, warns for the clamps it met first, and no later point warns."""
    global clamp_warnings
    for i in np.flatnonzero(np.logical_or.reduce([check[0] for check in checks])).tolist():
        for _, fatal, text, *values in (check for check in checks if check[0][i]):
            message = text.format(*(value[i].item() for value in values))
            if fatal:
                raise InvalidStateError(message, index=i)
            clamp_warnings += 1
            warnings.warn(message, stacklevel=3)


def _x_states(mz, sx, sy, sz) -> tuple:
    """(TwoSiteState's six entries, their checks) at each point; both sites share mz, so rho33 is rho22.

    The checks come in the order a point meets them: finite inputs, each diagonal entry's clamp and
    sign, the trace, then the bounds on |rho14| and |rho23|; x_concurrences adds the C gate last."""
    mz, sx, sy, sz = inputs = np.array([mz, sx, sy, sz], dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        diagonal = np.array([mz + sz + 0.25, -sz + 0.25, -mz + sz + 0.25])
        clamped = (diagonal < 0.0) & (diagonal >= -CLAMP_TOL)
        rho11, rho22, rho44 = np.where(clamped, 0.0, diagonal)
        rho14, rho23 = sx - sy, sx + sy
        trace, outer = rho11 + 2.0 * rho22 + rho44, np.sqrt(rho11 * rho44)
        abs14, abs23 = np.abs(rho14), np.abs(rho23)
        checks = _finite(("M_z", "S^x", "S^y", "S^z"), inputs)
        for label, value, clamp in zip(("rho11", "rho22", "rho44"), diagonal, clamped):
            checks += [(clamp, False, f"clamping {label} = {{:.3e}} to zero", value),
                       (value < -CLAMP_TOL, True, f"{label} = {{:.6e}} is negative beyond {CLAMP_TOL}", value)]
        checks += [
            (np.abs(trace - 1.0) > CLAMP_TOL, True, f"two-site trace {{!r}} differs from 1 beyond {CLAMP_TOL}",
             trace),
            (abs14 > outer + X_POSITIVITY_TOL, True,
             "|rho14| = {:.6e} exceeds sqrt(rho11 rho44) = {:.6e} by {:.1e}", abs14, outer, abs14 - outer),
            (abs23 > rho22 + X_POSITIVITY_TOL, True, "|rho23| = {:.6e} exceeds rho22 = {:.6e} by {:.1e}",
             abs23, rho22, abs23 - rho22)]
    return (rho11, rho22, rho22, rho44, rho14, rho23), checks


def _concurrences(rho11, rho22, rho33, rho44, rho14, rho23) -> tuple:
    """(C, its check) by Yu & Eberly's closed form (QIC 7, 459 (2007)), over arrays.

    C = 2 max(0, |rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44)) fails above 1 + C_TOL."""
    with np.errstate(invalid="ignore", over="ignore"):
        outer = np.sqrt(np.maximum(rho11 * rho44, 0.0))
        inner = np.sqrt(np.maximum(rho22 * rho33, 0.0))
        c = 2.0 * np.maximum(np.maximum(0.0, np.abs(rho14) - inner), np.abs(rho23) - outer)
    return c, (c > 1.0 + C_TOL, True, f"concurrence {{!r}} exceeds 1 beyond {C_TOL}", c)


def x_concurrences(mz, sx, sy, sz) -> np.ndarray:
    """C of the pair state at each point of the (M_z, S^x, S^y, S^z) arrays, in one pass."""
    entries, checks = _x_states(mz, sx, sy, sz)
    c, gate = _concurrences(*entries)
    _settle(checks + [gate])
    return c


def two_site_state(mz: float, sx: float, sy: float, sz: float) -> TwoSiteState:
    """The pair state of one point, clamped and gated as in x_concurrences but for the C gate."""
    entries, checks = _x_states([mz], [sx], [sy], [sz])
    _settle(checks)
    return TwoSiteState(*(entry.item() for entry in entries))


def concurrence_x(state: TwoSiteState) -> float:
    """Wootters concurrence of any X state by x_concurrences' closed form; a non-finite entry fails."""
    entries = np.array([[value] for value in astuple(state)], dtype=float)
    c, gate = _concurrences(*entries)
    _settle(_finite([f.name for f in fields(state)], entries) + [gate])
    return c.item()


def concurrence_general(rho: np.ndarray) -> float:
    """Wootters concurrence of an arbitrary two-qubit density matrix.

    Validates finiteness, Hermiticity, unit trace and positivity to 1e-8,
    then takes the square roots of the eigenvalues of rho * rho_tilde.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():  # NaN would pass the checks below, and eigvalsh fail on it
        raise InvalidStateError("density matrix has a non-finite entry")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-8:
        raise InvalidStateError("density matrix is not Hermitian to 1e-8")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise InvalidStateError(f"density matrix trace {np.trace(rho).real!r} is not 1")
    if np.linalg.eigvalsh(rho).min() < -1e-8:
        raise InvalidStateError("density matrix has an eigenvalue below -1e-8")
    rho_tilde = _SY_SY @ rho.conj() @ _SY_SY
    evals = np.linalg.eigvals(rho @ rho_tilde)
    # abs() guards against tiny negative real parts before the square root.
    lam = np.sort(np.sqrt(np.abs(evals.real)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def entanglement_of_formation(c: float) -> float:
    """Entanglement of formation -x log2 x - y log2 y, x = (1 + sqrt(1 - C^2))/2.

    Forming y = 1 - x as C^2 / (2 (1 + sqrt(1 - C^2))) and x log x through
    log1p(-y) avoids the cancellation of 1 - x at small C."""
    if not -C_TOL <= c <= 1.0 + C_TOL:
        raise ValueError(f"concurrence {c!r} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)
    y = c * c / (2.0 * (1.0 + math.sqrt(1.0 - c * c)))
    if y == 0.0:
        return 0.0
    return -(1.0 - y) * math.log1p(-y) / math.log(2.0) - y * math.log2(y)
