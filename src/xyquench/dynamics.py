"""Thermal mode states, step-quench propagators and their exact evolution.

Each momentum subspace is four-dimensional with basis (vacuum, pair-occupied,
single +p, single -p).  The Hamiltonian only couples vacuum to pair, so a
state is stored as a Hermitian 2x2 block over (vacuum, pair) plus the common
occupation of the two single states, which every propagator leaves untouched
up to a phase.  States are kept trace-normalized; the Gibbs weights enter
through q = exp(-2*Lambda(a)/kT) in [0, 1], so kT -> 0 never overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError
from .lattice import Mode

# Below this, expressions with Lambda(b) in a denominator switch to their
# series limit (sin(2 t L)/L -> 2 t and friends).
SERIES_EPS = 1e-8
# Below this, Lambda(a) counts as exactly degenerate: at kT = 0 the whole
# 4-dimensional subspace is then a ground space and the state is uniform.
DEGENERACY_EPS = 1e-12

_I2 = np.eye(2, dtype=complex)


def _pair_generator(x: float, delta: float) -> np.ndarray:
    """Traceless part of the (vacuum, pair) block Hamiltonian, x = cos(phi) + h.

    Its square is (2*Lambda)**2 times the identity, which is what makes the
    closed-form propagator a plain cos/sin rotation.
    """
    return np.array([[2.0 * x, -1j * delta], [1j * delta, -2.0 * x]], dtype=complex)


def _mode_hamiltonian(mode: Mode, h: float) -> np.ndarray:
    """Full 4x4 subspace Hamiltonian at field h."""
    c = math.cos(mode.phi)
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = 2.0 * h
    out[0, 1] = -1j * mode.delta
    out[1, 0] = 1j * mode.delta
    out[1, 1] = -4.0 * c - 2.0 * h
    out[2, 2] = out[3, 3] = -2.0 * c
    return out


@dataclass
class ModeState:
    """Trace-normalized state of one momentum subspace.

    occ_block is the 2x2 density block over (vacuum, pair); single_occ is the
    shared occupation of each of the two singly occupied states, so the full
    trace is tr(occ_block) + 2*single_occ = 1.
    """

    occ_block: np.ndarray
    single_occ: float

    def trace(self) -> float:
        return float(np.trace(self.occ_block).real + 2.0 * self.single_occ)

    def as_matrix(self) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = self.occ_block
        out[2, 2] = out[3, 3] = self.single_occ
        return out


@dataclass
class ModePropagator:
    """Single-mode propagator for evolution under the post-quench field.

    Only the (vacuum, pair) block is kept.  The singly occupied states only
    acquire the global phase exp(2*i*t*cos(phi)), which is dropped because it
    cancels in every expectation value.
    """

    u_block: np.ndarray


def _gibbs_q(lam: float, kt: float) -> float:
    """q = exp(-2*Lambda/kT), the per-quasiparticle Gibbs factor in [0, 1]."""
    if kt == 0.0:
        return 0.0 if lam > DEGENERACY_EPS else 1.0
    return math.exp(-2.0 * lam / kt)


def _tanh_over_lambda(lam: float, kt: float) -> float:
    """tanh(Lambda/kT)/Lambda, finite for Lambda -> 0 at kT > 0."""
    if kt == 0.0:
        return 1.0 / lam
    arg = lam / kt
    if arg < 1e-6:
        return (1.0 - arg * arg / 3.0) / kt
    return math.tanh(arg) / lam


def thermal_mode_state(mode: Mode, a: float, kt: float) -> ModeState:
    """Gibbs state of one mode at field a and temperature kT (kT = 0 allowed).

    At kT = 0 this is the projector onto the lower eigenvector of the
    (vacuum, pair) block; if that block is exactly degenerate the whole
    subspace shares the ground energy and the uniform state is returned.
    """
    if kt < 0:
        raise ValueError(f"kt must be non-negative, got {kt}")
    lam = mode.lambda_of(a)
    if kt == 0.0 and lam <= DEGENERACY_EPS:
        return ModeState(occ_block=_I2 * 0.25, single_occ=0.25)
    q = _gibbs_q(lam, kt)
    norm = (1.0 + q) ** 2
    c_id = (1.0 + q * q) / (2.0 * norm)
    c_gen = _tanh_over_lambda(lam, kt) / 4.0
    x = math.cos(mode.phi) + a
    block = c_id * _I2 - c_gen * _pair_generator(x, mode.delta)
    return ModeState(occ_block=block, single_occ=q / norm)


def step_propagator(mode: Mode, b: float, t: float) -> ModePropagator:
    """Propagator exp(-i H t) at constant post-quench field b, global phase dropped."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    lam = mode.lambda_of(b)
    x = math.cos(mode.phi) + b
    angle = 2.0 * t * lam
    # sin(2 t L)/(2 L) -> t as L -> 0; the generator vanishes with L, so the
    # propagator tends to the identity for a degenerate mode.
    ratio = t if lam < SERIES_EPS else math.sin(angle) / (2.0 * lam)
    u = math.cos(angle) * _I2 - 1j * ratio * _pair_generator(x, mode.delta)
    return ModePropagator(u_block=u)


def evolve_mode(state: ModeState, prop: ModePropagator) -> ModeState:
    """Conjugate a mode state by a propagator."""
    block = prop.u_block @ state.occ_block @ prop.u_block.conj().T
    return ModeState(occ_block=block, single_occ=state.single_occ)


def closed_form_mode_state(mode: Mode, a: float, b: float, kt: float, t: float) -> ModeState:
    """Evolved mode state from the explicit matrix-element formulas.

    Independent reference path used to cross-check evolve_mode; it divides by
    Lambda(a) and Lambda(b)**2 and therefore rejects degenerate modes.
    """
    lam_a = mode.lambda_of(a)
    lam_b = mode.lambda_of(b)
    if lam_a <= DEGENERACY_EPS or lam_b < SERIES_EPS:
        raise ValueError("closed-form elements need non-degenerate Lambda(a), Lambda(b)")
    x_a = math.cos(mode.phi) + a
    x_b = math.cos(mode.phi) + b
    q = _gibbs_q(lam_a, kt)
    f4 = q * q
    s2 = math.sin(2.0 * t * lam_b) ** 2
    s4 = math.sin(4.0 * t * lam_b)
    d2 = mode.delta**2
    zeta = 2.0 * lam_b**2 * (lam_a + x_a)
    eta = 2.0 * lam_b**2 * (lam_a - x_a)
    den = 4.0 * lam_b**2 * lam_a * (1.0 + q) ** 2
    r11 = ((d2 * (b - a) * s2 + zeta) * f4 + d2 * (a - b) * s2 + eta) / den
    r22 = ((d2 * (a - b) * s2 + eta) * f4 + d2 * (b - a) * s2 + zeta) / den
    r12 = (
        mode.delta
        * (1.0 - f4)
        * (lam_b * s4 * (b - a) + 1j * (lam_b**2 + 2.0 * (a - b) * x_b * s2))
        / den
    )
    block = np.array([[r11, r12], [r12.conjugate(), r22]], dtype=complex)
    return ModeState(occ_block=block, single_occ=q / (1.0 + q) ** 2)


def evolve_mode_numeric(
    mode: Mode, a: float, b: float, kt: float, t: float, tol: float = 1e-9
) -> ModeState:
    """Evolve the thermal state by integrating the 4x4 von Neumann equation.

    Deliberately avoids every closed-form shortcut so it can serve as an
    oracle for the analytic paths.  tol sets the integrator error control.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    state0 = thermal_mode_state(mode, a, kt)
    if t == 0:
        return state0
    ham = _mode_hamiltonian(mode, b)

    def rhs(_, y):
        rho = y.reshape(4, 4)
        return (-1j * (ham @ rho - rho @ ham)).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, t),
        state0.as_matrix().ravel(),
        method="DOP853",
        rtol=max(tol * 1e-2, 2.5e-14),
        atol=max(tol * 1e-3, 1e-14),
    )
    if not sol.success:
        raise IntegrationError(f"mode integration failed: {sol.message}")
    rho = sol.y[:, -1].reshape(4, 4)
    return ModeState(occ_block=rho[:2, :2], single_occ=0.5 * (rho[2, 2].real + rho[3, 3].real))


def asymptotic_mode(mode: Mode, a: float, b: float, kt: float) -> ModeState:
    """Dephased t -> infinity limit of the evolved mode state.

    The evolution rotates the (vacuum, pair) block around the post-quench
    axis at frequency 4*Lambda(b); averaging the phases keeps only the
    component along that axis (sin^2 -> 1/2, sin(4 t Lambda) -> 0).  A mode
    with Lambda(b) below the series threshold never evolves and keeps its
    initial state.
    """
    state0 = thermal_mode_state(mode, a, kt)
    lam_b = mode.lambda_of(b)
    if lam_b < SERIES_EPS:
        return ModeState(occ_block=state0.occ_block.copy(), single_occ=state0.single_occ)
    axis = _pair_generator(math.cos(mode.phi) + b, mode.delta) / (2.0 * lam_b)
    tr_half = float(np.trace(state0.occ_block).real) / 2.0
    overlap = float(np.trace((state0.occ_block - tr_half * _I2) @ axis).real) / 2.0
    return ModeState(occ_block=tr_half * _I2 + overlap * axis, single_occ=state0.single_occ)
