"""Static problem definition and momentum grid for the quenched XY ring.

N spins sit on a periodic chain with anisotropic nearest-neighbor exchange
(coupling fixed to 1) in a transverse field that steps from ``field_before``
to ``field_after`` at t = 0.  Fermionizing the chain decouples it into N/2
four-dimensional momentum subspaces labelled p = 1..N/2 with angle
phi_p = 2*pi*p/N.  Each mode carries

    delta_p     =  2*gamma*sin(phi_p)
    Lambda_p(h) =  sqrt((cos(phi_p) + h)**2 + gamma**2 * sin(phi_p)**2)

and everything downstream (thermal occupations, propagators, contractions)
is built from these two quantities and cos(phi_p) + h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def dispersion(phi: float, h: float, gamma: float) -> float:
    """Quasiparticle energy Lambda(h) = sqrt((cos phi + h)^2 + (gamma sin phi)^2)."""
    return math.hypot(math.cos(phi) + h, gamma * math.sin(phi))


@dataclass(frozen=True)
class ChainConfig:
    """Chain size, anisotropy, temperature and the field step a -> b at t = 0."""

    n_sites: int
    gamma: float
    kt: float
    field_before: float
    field_after: float

    def __post_init__(self):
        if self.n_sites < 4:
            raise ValueError(f"n_sites must be at least 4, got {self.n_sites}")
        if self.n_sites % 2:
            raise ValueError(f"n_sites must be even, got {self.n_sites}")
        if self.kt < 0:
            raise ValueError(f"kt must be non-negative, got {self.kt}")


@dataclass(frozen=True)
class Mode:
    """One momentum subspace: angle phi, pair coupling delta and the dispersion."""

    p: int
    phi: float
    delta: float

    def lambda_of(self, h: float) -> float:
        # hypot on delta/2 rather than gamma*sin(phi) so that the exact
        # delta = 0 of the phi = pi mode gives Lambda = |h - 1| exactly.
        return math.hypot(math.cos(self.phi) + h, 0.5 * self.delta)


def grid_arrays(config: ChainConfig):
    """phi_p and delta_p for p = 1..N/2 as arrays.

    The last entry is pinned to phi = pi, delta = 0 exactly; floating-point
    sin(pi) would otherwise leave a ~1e-16 residue that breaks exact
    degeneracy detection at the zone boundary.
    """
    half = config.n_sites // 2
    p = np.arange(1, half + 1, dtype=float)
    phi = 2.0 * np.pi * p / config.n_sites
    phi[-1] = np.pi
    delta = 2.0 * config.gamma * np.sin(phi)
    delta[-1] = 0.0
    return phi, delta


def mode_grid(config: ChainConfig) -> list[Mode]:
    """The N/2 momentum modes of the ring, in order of increasing phi."""
    phi, delta = grid_arrays(config)
    return [
        Mode(p=i + 1, phi=float(phi[i]), delta=float(delta[i])) for i in range(len(phi))
    ]
