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


class NumericalFailure(ParatimeError):
    """A chunk propagation failed numerically.

    Attributes
    ----------
    step_index : int or None
        Internal step at which the propagation failed.
    chunk_index : int or None
        Time chunk (if known) whose propagation failed; within one batched
        propagation, the batch row.
    """

    verb = "failed"

    def __init__(self, message, step_index=None, chunk_index=None):
        super().__init__(message)
        self.step_index = step_index
        self.chunk_index = chunk_index

    def in_chunk(self, where, n, offset=0):
        """This failure as ``where`` reports it for chunk ``n``, which starts
        ``offset`` steps before the failed propagation did."""
        step = None if self.step_index is None else self.step_index + offset
        text = str(self).replace(f"at internal step {self.step_index}",
                                 f"at internal step {step}")
        return type(self)(f"{where} {self.verb} in chunk {n}: {text}",
                          **{**vars(self), "step_index": step, "chunk_index": n})


class StepFailureError(NumericalFailure):
    """An implicit stage solve failed to converge.

    Attributes
    ----------
    residual : float
        Infinity norm of the stage residual at the last Newton iterate.
    """

    def __init__(self, message, residual=None, step_index=None, chunk_index=None):
        super().__init__(message, step_index, chunk_index)
        self.residual = residual


class BlowUpError(NumericalFailure):
    """A propagated state became non-finite."""

    verb = "blew up"


class DiagnosticUnavailable(ParatimeError):
    """Not enough data to compute a convergence diagnostic."""
