"""Exception types shared across the library."""

from math import inf
from numbers import Real


class ParatimeError(Exception):
    """Base class for all library errors."""


class ConfigError(ParatimeError):
    """Invalid or inconsistent configuration.

    Carries a human-readable message naming the offending field.
    """


def require_positive(field: str, value) -> None:
    """Raise a ConfigError naming ``field`` unless ``value`` is a finite
    number > 0 (None, strings, nan and inf fail)."""
    if not (isinstance(value, Real) and 0.0 < value < inf):
        raise ConfigError(f"{field}: must be positive and finite, got {value!r}")


class StepFailureError(ParatimeError):
    """An implicit stage solve failed to converge.

    Attributes
    ----------
    residual : float
        Infinity norm of the stage residual at the last Newton iterate.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BlowUpError(ParatimeError):
    """A propagated state became non-finite.

    Attributes
    ----------
    step_index : int or None
        Internal step at which the state left the finite range.
    chunk_index : int or None
        Time chunk (if known) whose propagation failed.
    """

    def __init__(self, message, step_index=None, chunk_index=None):
        super().__init__(message)
        self.step_index = step_index
        self.chunk_index = chunk_index


class DiagnosticUnavailable(ParatimeError):
    """Not enough data to compute a convergence diagnostic."""
