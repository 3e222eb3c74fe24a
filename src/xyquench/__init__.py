"""Entanglement dynamics of the periodic anisotropic XY chain after a field quench.

The transverse field is a step function h(t) = a for t <= 0 and h(t) = b for
t > 0.  Fermionization decouples the ring into independent momentum modes, so
thermal initial states, their exact time evolution, two-point string
correlators and the pairwise concurrence all come out in closed form.  A dense
exact-diagonalization oracle for small rings validates the whole pipeline.
"""

from .lattice import ChainConfig, Mode, dispersion, mode_grid
from .dynamics import (
    ModePropagator,
    ModeState,
    asymptotic_mode,
    closed_form_mode_state,
    evolve_mode,
    evolve_mode_numeric,
    step_propagator,
    thermal_mode_state,
)
from .correlations import (
    contraction_aa,
    contraction_ba,
    contraction_bb,
    contraction_table,
    correlator_xx,
    correlator_yy,
    correlator_zz,
    magnetization_z,
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
    "Mode",
    "dispersion",
    "mode_grid",
    "ModeState",
    "ModePropagator",
    "thermal_mode_state",
    "step_propagator",
    "evolve_mode",
    "closed_form_mode_state",
    "evolve_mode_numeric",
    "asymptotic_mode",
    "contraction_table",
    "contraction_ba",
    "contraction_aa",
    "contraction_bb",
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
