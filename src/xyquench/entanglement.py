"""Two-site reduced states and Wootters concurrence / entanglement of formation.

Translation invariance plus the parity symmetry of the chain force the
reduced state of any site pair into X form in the basis (uu, ud, du, dd),
u being the +1 eigenstate of sigma^z:

    [rho11   .     .    rho14]
    [  .   rho22 rho23    .  ]
    [  .   rho23 rho33    .  ]
    [rho14   .     .    rho44]

with real off-diagonals built from the correlators, rho14 = Sx - Sy and
rho23 = Sx + Sy.  Concurrence comes either from the X-state closed form or
from the generic spectrum of rho * (sy x sy) rho^* (sy x sy); both paths are
kept so one can check the other.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError

# Diagonal entries in [-CLAMP_TOL, 0) are rounding debris and get clamped to
# zero (counted in clamp_warnings); anything more negative is a real
# positivity violation and raises.
CLAMP_TOL = 1e-10
X_POSITIVITY_TOL = 1e-8

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


def _clamped_diag(value: float, label: str) -> float:
    global clamp_warnings
    if value >= 0.0:
        return value
    if value >= -CLAMP_TOL:
        clamp_warnings += 1
        warnings.warn(f"clamping {label} = {value:.3e} to zero", stacklevel=3)
        return 0.0
    raise InvalidStateError(f"{label} = {value:.6e} is negative beyond {CLAMP_TOL}")


def two_site_state(mz: float, sx: float, sy: float, sz: float) -> TwoSiteState:
    """Assemble the pair state from M_z and the three same-axis correlators.

    Uses the uniform-chain form (both sites share the magnetization mz).
    Non-finite inputs and violations of trace or positivity beyond tolerance
    raise instead of being silently repaired.
    """
    if not math.isfinite(mz + sx + sy + sz):  # one test per state: NaN and inf survive the sum
        for label, value in (("M_z", mz), ("S^x", sx), ("S^y", sy), ("S^z", sz)):
            if not math.isfinite(value):
                raise InvalidStateError(f"{label} = {value} is not finite")
    rho11 = _clamped_diag(mz + sz + 0.25, "rho11")
    rho22 = _clamped_diag(-sz + 0.25, "rho22")
    rho44 = _clamped_diag(-mz + sz + 0.25, "rho44")
    rho14 = sx - sy
    rho23 = sx + sy
    trace = rho11 + 2.0 * rho22 + rho44
    if abs(trace - 1.0) > CLAMP_TOL:
        raise InvalidStateError(f"two-site trace {trace!r} differs from 1 beyond {CLAMP_TOL}")
    outer = math.sqrt(rho11 * rho44)
    if abs(rho14) > outer + X_POSITIVITY_TOL:
        raise InvalidStateError(
            f"|rho14| = {abs(rho14):.6e} exceeds sqrt(rho11 rho44) = {outer:.6e} "
            f"by {abs(rho14) - outer:.1e}"
        )
    if abs(rho23) > rho22 + X_POSITIVITY_TOL:
        raise InvalidStateError(
            f"|rho23| = {abs(rho23):.6e} exceeds rho22 = {rho22:.6e} by {abs(rho23) - rho22:.1e}"
        )
    return TwoSiteState(rho11, rho22, rho22, rho44, rho14, rho23)


def concurrence_x(state: TwoSiteState) -> float:
    """Wootters concurrence of an X state in closed form (Yu & Eberly, QIC 7, 459 (2007)).

    C = 2 max(0, |rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44)).
    """
    root_outer = math.sqrt(max(state.rho11 * state.rho44, 0.0))
    root_inner = math.sqrt(max(state.rho22 * state.rho33, 0.0))
    return 2.0 * max(0.0, abs(state.rho14) - root_inner, abs(state.rho23) - root_outer)


def concurrence_general(rho: np.ndarray) -> float:
    """Wootters concurrence of an arbitrary two-qubit density matrix.

    Validates Hermiticity, unit trace and positivity to 1e-8, then takes the
    square roots of the eigenvalues of rho * rho_tilde.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
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
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise ValueError(f"concurrence {c!r} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)
    y = c * c / (2.0 * (1.0 + math.sqrt(1.0 - c * c)))
    if y == 0.0:
        return 0.0
    return -(1.0 - y) * math.log1p(-y) / math.log(2.0) - y * math.log2(y)
