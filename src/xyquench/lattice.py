"""Static problem definition and momentum grid for the quenched XY ring.

N spins sit on a periodic chain with anisotropic nearest-neighbor exchange
(coupling fixed to 1) in a transverse field that steps from ``field_before``
to ``field_after`` at t = 0.  Fermionizing the chain decouples it into N/2
four-dimensional momentum subspaces, one per node of grid_arrays, the one
place the nodes and their weights are formed.  dispersion is the scalar
quasiparticle energy, a reference for the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# Largest |gamma|, |a| and |b| taken.  Up to it Lambda^2 and delta^2 stay normal
# floats; past about 1e155 the dephased w = 1/(2 Lambda_b^2) does not (at
# b = 1e200 it is 0, and the t = inf row silently equals the t = 0 one).
PARAMETER_BOUND = 1e150


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
        if not self.kt >= 0:  # NaN fails too; kt = inf is the infinite-temperature state
            raise ValueError(f"kt must be non-negative, got {self.kt}")
        for name in ("gamma", "field_before", "field_after"):
            if not abs(getattr(self, name)) <= PARAMETER_BOUND:  # NaN and +-inf fail too
                raise ValueError(f"{name} must be finite and at most {PARAMETER_BOUND:g} in magnitude, "
                                 f"got {getattr(self, name)}")


def grid_arrays(config: ChainConfig):
    """phi_p = 2*pi*p/N, delta_p = 2*gamma*sin(phi_p) and weight_p = 2/N for p = 1..N/2 as arrays.

    sum_p weight_p f(phi_p) is every mode sum; the weights sum to 1.  The last
    entry is pinned to phi = pi, delta = 0 exactly; floating-point sin(pi)
    would otherwise leave a ~1e-16 residue that breaks exact degeneracy
    detection at the zone boundary.
    """
    phi = 2.0 * np.pi * np.arange(1, config.n_sites // 2 + 1, dtype=float) / config.n_sites
    phi[-1] = np.pi
    delta = 2.0 * config.gamma * np.sin(phi)
    delta[-1] = 0.0
    return phi, delta, np.full(phi.size, 2.0 / config.n_sites)

