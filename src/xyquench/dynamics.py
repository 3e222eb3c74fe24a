"""Spectral oracle for the per-mode states that correlations.mode_blocks writes in closed form.

Each momentum subspace is four-dimensional with basis (vacuum, pair-occupied,
single +p, single -p).  Here its state after the quench a -> b is reached
with no closed form of its own: the Gibbs state of the 4x4 Hamiltonian H(a)
and its evolution under H(b) come from the generic eigendecomposition routes
of ed, or from integrating the von Neumann equation.  Tests compare
production against these states; the command line never imports this module.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from . import ed
from .correlations import SERIES_EPS
from .errors import IntegrationError


def _mode_hamiltonian(phi: float, delta: float, h: float) -> np.ndarray:
    """Full 4x4 subspace Hamiltonian of the mode (phi, delta) at field h."""
    c = math.cos(phi)
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = 2.0 * h
    out[0, 1] = -1j * delta
    out[1, 0] = 1j * delta
    out[1, 1] = -4.0 * c - 2.0 * h
    out[2, 2] = out[3, 3] = -2.0 * c
    return out


def spectral_mode_state(phi: float, delta: float, a: float, b: float, kt: float, t: float) -> np.ndarray:
    """4x4 state of the mode (phi, delta) at time t after the quench a -> b, by diagonalization.

    t = math.inf gives the dephased limit: the state is pinched in the
    eigenbasis of H(b), keeping only the entries between levels closer than
    4 * SERIES_EPS, the gap below which production holds a mode unevolved.
    """
    rho0 = ed.thermal_state(_mode_hamiltonian(phi, delta, a), kt)
    ham = _mode_hamiltonian(phi, delta, b)
    if not math.isinf(t):
        return ed.evolve(rho0, ham, t)
    evals, vecs = np.linalg.eigh(ham)
    keep = np.abs(evals[:, None] - evals[None, :]) < 4.0 * SERIES_EPS
    return vecs @ (keep * (vecs.conj().T @ rho0 @ vecs)) @ vecs.conj().T


def evolve_mode_numeric(phi: float, delta: float, a: float, b: float, kt: float, t: float) -> np.ndarray:
    """4x4 state of the mode (phi, delta) at time t, by integrating the von Neumann equation.

    Starts from the same Gibbs state as spectral_mode_state but never
    diagonalizes H(b).
    """
    state0 = ed.thermal_state(_mode_hamiltonian(phi, delta, a), kt)
    if t == 0:
        return state0
    ham = _mode_hamiltonian(phi, delta, b)

    def rhs(_, y):
        rho = y.reshape(4, 4)
        return (-1j * (ham @ rho - rho @ ham)).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, t),
        state0.ravel(),
        method="DOP853",
        rtol=1e-11,
        atol=1e-12,
    )
    if not sol.success:
        raise IntegrationError(f"mode integration failed: {sol.message}")
    return sol.y[:, -1].reshape(4, 4)
