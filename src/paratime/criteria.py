"""Stopping criteria for the fixed-point iteration.

Two checks: ``standard``, the relative residual between successive
iterates, and ``psi``, the proximity function, a weighted mean of the
inter-chunk jump norms.  Its base weight ``w`` is ``unit`` (1),
``lyapunov`` (e^{lambda dT}) or ``lipschitz`` (the running secant estimate
of the fine chunk map's Lipschitz constant); weights decay geometrically
with the chunk index so that late-time discrepancies (which a chaotic flow
amplifies anyway) count less than early-time ones.  A ``StopCriterion`` is
immutable: the solve computes ``w`` with ``base_weight`` each iteration and
passes it to ``check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Optional

import numpy as np

from .errors import ConfigError, require_positive

Array = np.ndarray

CHECKS = ("standard", "psi")
WEIGHT_MODES = ("unit", "lyapunov", "lipschitz")

# Chunks whose state norm sits below this are skipped by the relative check.
_TINY_NORM = 1e-300
# Secant pairs closer than this contribute nothing to the Lipschitz estimate.
_SECANT_FLOOR = 1e-14


@dataclass(frozen=True)
class StopCriterion:
    """Stopping rule: the check, tolerance, weight mode and the Lyapunov
    exponent that ``lyapunov`` weighting needs.  Each field is named as the
    config field (and error text) that holds its value."""

    check: str = "standard"
    eps: float = 1e-9
    weight: str = "unit"
    lam: Optional[float] = None

    def __post_init__(self):
        if self.check not in CHECKS:
            raise ConfigError(f"check: unknown value {self.check!r}; "
                              f"expected one of {sorted(CHECKS)}")
        if self.weight not in WEIGHT_MODES:
            raise ConfigError(f"weight: unknown value {self.weight!r}; "
                              f"expected one of {sorted(WEIGHT_MODES)}")
        require_positive("eps", self.eps)
        if self.weight == "lyapunov" and not (isinstance(self.lam, Real)
                                              and np.isfinite(self.lam)):
            raise ConfigError(f"lam: weight=lyapunov needs a finite exponent, "
                              f"got {self.lam!r}")


@dataclass(frozen=True)
class NormEquivalence:
    """Constants tying the proximity value to the weighted trajectory error."""

    theta: float
    c_lower: float
    C_upper: float


def _block_norms(a: Array, b: Array) -> Array:
    return np.linalg.norm(a - b, axis=-1)


def proximity(U, fine_values: Array, w: float) -> float:
    """Weighted mean jump norm: (1/N) sum_n w^{-n} ||U_n - F(U_{n-1})||.

    ``fine_values[n-1]`` must hold the fine image of ``U_{n-1}``; the sum runs
    in ascending n for a deterministic result.
    """
    states = np.asarray(getattr(U, "states", U))
    N = states.shape[0] - 1
    fine_values = np.asarray(fine_values)
    if fine_values.shape != states[1:].shape:
        raise ConfigError(
            f"proximity: expected {N} fine values of dimension "
            f"{states.shape[1]}, got array of shape {fine_values.shape}")
    jumps = _block_norms(states[1:], fine_values)
    total = 0.0
    for n in range(1, N + 1):
        total += w ** (-n) * jumps[n - 1]
    return total / N


def update_lipschitz(prev: float, U_curr, U_prev, fine_curr: Array,
                     fine_prev: Array) -> float:
    """Secant estimate of the fine chunk map's Lipschitz constant.

    Ratios ||F(a_n) - F(b_n)|| / ||a_n - b_n|| over the chunk inputs of two
    successive iterates, maxed with the previous estimate and floored at 1.
    Pairs with near-zero separation are skipped.
    """
    a = np.asarray(getattr(U_curr, "states", U_curr))[:-1]
    b = np.asarray(getattr(U_prev, "states", U_prev))[:-1]
    den = _block_norms(a, b)
    num = _block_norms(np.asarray(fine_curr), np.asarray(fine_prev))
    usable = den >= _SECANT_FLOOR
    est = prev
    if np.any(usable):
        est = max(est, float(np.max(num[usable] / den[usable])))
    return max(1.0, est)


def base_weight(mode: str, lam: Optional[float], dT: float,
                current_lipschitz: float = 1.0) -> float:
    """Base weight for the proximity function under the given mode."""
    if mode == "unit":
        return 1.0
    if mode == "lyapunov":
        if lam is None:
            raise ConfigError(
                "lyapunov weighting needs a Lyapunov exponent (lambda)")
        return float(np.exp(lam * dT))
    if mode == "lipschitz":
        return max(1.0, float(current_lipschitz))
    raise ConfigError(f"unknown weight mode {mode!r}")


def weighted_norm(U, ref, w: float, p: float = 2.0) -> float:
    """Trajectory seminorm ( sum_{n>=1} w^{-n} ||U_n - ref_n||_p^p )^{1/p}."""
    if p < 1.0:
        raise ConfigError(f"weighted_norm: p must be >= 1, got {p}")
    a = np.asarray(getattr(U, "states", U))
    b = np.asarray(getattr(ref, "states", ref))
    if a.shape != b.shape:
        raise ConfigError(f"weighted_norm: shape mismatch {a.shape} vs {b.shape}")
    N = a.shape[0] - 1
    block = np.linalg.norm(a[1:] - b[1:], ord=p, axis=-1)
    total = 0.0
    for n in range(1, N + 1):
        total += w ** (-n) * block[n - 1] ** p
    return total ** (1.0 / p)


def equivalence_constants(Lambda_F: float, w: float, N: int) -> NormEquivalence:
    """Two-sided constants between the proximity value and the weighted error.

    With stability ratio theta = Lambda_F / w: the lower constant is
    1/(1+theta); the upper is N*(theta^N - 1)/(theta - 1), degenerating to
    N^2 at theta = 1.  The upper constant grows exponentially in N once
    theta > 1 and stays bounded for theta < 1.
    """
    if Lambda_F <= 0.0 or w <= 0.0 or N < 1:
        raise ConfigError("equivalence_constants: need Lambda_F > 0, w > 0, N >= 1")
    theta = Lambda_F / w
    c = 1.0 / (1.0 + theta)
    if abs(theta - 1.0) < 1e-12:
        C = float(N) * float(N)
    else:
        C = N * (theta ** N - 1.0) / (theta - 1.0)
    return NormEquivalence(theta=theta, c_lower=c, C_upper=C)


def check(criterion: StopCriterion, U_curr, U_prev, fine_prev_values: Array,
          w: float) -> tuple[bool, float]:
    """Evaluate the criterion for one iteration.

    Standard: max over chunks of the relative change between the two
    iterates.  Psi: the proximity function with base weight ``w`` of the
    older iterate, whose fine sweep ``fine_prev_values`` was computed this
    iteration.  Returns (fired, value).
    """
    if criterion.check == "standard":
        a = np.asarray(getattr(U_curr, "states", U_curr))[1:]
        b = np.asarray(getattr(U_prev, "states", U_prev))[1:]
        if a.shape != b.shape:
            raise ConfigError(f"check: shape mismatch {a.shape} vs {b.shape}")
        diff = _block_norms(a, b)
        base = np.linalg.norm(b, axis=-1)
        usable = base >= _TINY_NORM
        value = float(np.max(diff[usable] / base[usable])) if np.any(usable) else 0.0
    else:
        value = proximity(U_prev, fine_prev_values, w)
    return value < criterion.eps, value
