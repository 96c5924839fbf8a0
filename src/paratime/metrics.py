"""Statistical and scalability metrics for runs.

Statistical agreement between a chunk-parallel solution and the serial fine
reference is measured with the 1-Wasserstein distance between the empirical
distributions of their interface values; pointwise agreement is hopeless for
chaotic runs, distributional agreement is the meaningful target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ConfigError, require_positive
from .integrators import (RK4, Propagator, _initial_state, _walk,
                          propagate_with_tangent)
from .systems import OdeSystem

Array = np.ndarray


@dataclass(frozen=True)
class MetricsReport:
    """Headline per-run metrics."""

    S: float
    serial_work: float
    w1: float
    error_l2: float


def wasserstein1(a, b) -> float:
    """1-Wasserstein distance between two empirical 1-D distributions of
    equal size: the mean absolute difference of the sorted values."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ConfigError("wasserstein1 needs non-empty samples")
    if a.size != b.size:
        raise ConfigError(f"wasserstein1 needs equal-size samples, got "
                          f"{a.size} and {b.size}")
    return float(np.mean(np.abs(a - b)))


def trajectory_w1(U, ref) -> float:
    """Scalar distributional distance between two trajectories.

    Compares the N interface states (the initial state is shared by
    construction) coordinate by coordinate and averages the per-coordinate
    distances.
    """
    a = np.asarray(getattr(U, "states", U))
    b = np.asarray(getattr(ref, "states", ref))
    if a.shape != b.shape:
        raise ConfigError(f"trajectory_w1: shape mismatch {a.shape} vs {b.shape}")
    a, b = a[1:], b[1:]
    return float(np.mean([wasserstein1(a[:, i], b[:, i])
                          for i in range(a.shape[1])]))


def speedup_model(N: int, K: int, xi: int) -> float:
    """Algorithmic speedup limit N / (K (1 + N/xi)).

    Fine chunk work is the unit; each iteration adds one parallel fine chunk
    plus a serial coarse sweep costing N/xi.  With a free coarse solver
    (xi -> inf) this tends to the headline ratio N/K.
    """
    if N < 1 or K < 1 or xi < 1:
        raise ConfigError("speedup_model needs N, K, xi >= 1")
    return N / (K * (1.0 + N / xi))


def serial_work(K: int, dT: float) -> float:
    """Effective sequential bottleneck K * dT in time units."""
    return K * dT


def lyapunov_estimate(system: OdeSystem, u0: Array, spinup: float,
                      horizon: float, renorm_interval: float,
                      h: float = 1e-3) -> float:
    """Leading Lyapunov exponent by RK4 tangent propagation with renormalization.

    A unit tangent vector rides the variational dynamics alongside the state;
    its log-growth is harvested and the vector rescaled every
    ``renorm_interval``, and the mean growth rate after the spin-up is
    returned.
    """
    for name, value in (("horizon", horizon),
                        ("renorm_interval", renorm_interval), ("h", h)):
        require_positive(f"lyapunov_estimate: {name}", value)
    if not 0.0 <= spinup < float("inf"):
        raise ConfigError(f"lyapunov_estimate: spinup: must be >= 0 and "
                          f"finite, got {spinup!r}")
    steps_per_block = max(1, int(round(renorm_interval / h)))
    blocks = max(1, int(round(horizon / (steps_per_block * h))))
    block_prop = Propagator(tableau=RK4, step=h, steps_per_call=steps_per_block)

    u = _initial_state(system, u0)
    spin_steps = int(round(spinup / h))
    if spin_steps > 0:
        states, failure = _walk(RK4, system, h, u, (0, spin_steps))
        if failure is not None:
            raise failure
        u = states[-1]

    v = np.ones((system.dim, 1)) / np.sqrt(system.dim)
    log_sum = 0.0
    t = spinup
    for _ in range(blocks):
        u, v = propagate_with_tangent(block_prop, system, t, u, v)
        growth = float(np.linalg.norm(v))
        if growth == 0.0:
            raise BlowUpError("tangent vector collapsed to zero")
        if not np.isfinite(growth):
            raise BlowUpError("tangent vector blew up")
        log_sum += np.log(growth)
        v /= growth
        t += steps_per_block * h
    return log_sum / (blocks * steps_per_block * h)
