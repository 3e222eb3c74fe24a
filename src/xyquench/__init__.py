"""Entanglement dynamics of the periodic anisotropic XY chain after a field quench.

The transverse field is a step function h(t) = a for t <= 0 and h(t) = b for
t > 0.  Fermionization decouples the ring into independent momentum modes, so
the evolved per-mode states (correlations.mode_blocks), two-point string
correlators and the pairwise concurrence all come out in closed form.  Two
oracles stay outside this namespace: xyquench.dynamics for each mode's state
and xyquench.ed for small rings.
"""

from .lattice import ChainConfig, dispersion
from .correlations import (
    contraction_table,
    correlator_xx,
    correlator_yy,
    correlator_zz,
    magnetization_z,
    mode_blocks,
    pfaffian,
)
from .entanglement import (
    TwoSiteState,
    concurrence_general,
    concurrence_x,
    entanglement_of_formation,
    two_site_state,
)
from .errors import IntegrationError, InvalidStateError, NumericalError

__all__ = [
    "ChainConfig",
    "dispersion",
    "mode_blocks",
    "contraction_table",
    "magnetization_z",
    "pfaffian",
    "correlator_xx",
    "correlator_yy",
    "correlator_zz",
    "TwoSiteState",
    "two_site_state",
    "concurrence_x",
    "concurrence_general",
    "entanglement_of_formation",
    "NumericalError",
    "InvalidStateError",
    "IntegrationError",
]

__version__ = "0.1.0"
