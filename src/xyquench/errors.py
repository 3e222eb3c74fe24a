"""Exception types shared across the pipeline."""


class NumericalError(RuntimeError):
    """A numerical consistency check failed beyond its tolerance."""


class InvalidStateError(NumericalError):
    """A density matrix violated trace or positivity constraints; index is the failing point of a batch."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class IntegrationError(NumericalError):
    """The ODE integrator failed (step-size underflow or non-convergence)."""


def at_point(exc: NumericalError, config, d: int, t: float) -> NumericalError:
    """An error of exc's type whose message also names the point it happened at."""
    return type(exc)(
        f"{exc} (at N = {config.n_sites}, kT = {config.kt}, a = {config.field_before}, "
        f"b = {config.field_after}, d = {d}, t = {t})"
    )
