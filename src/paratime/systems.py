"""Test problems: right-hand sides with analytic Jacobians.

Each system is a plain container of callables.  Right-hand sides and
Jacobians are vectorized over leading axes: ``rhs(t, u)`` accepts ``u``
of shape ``(..., d)`` and returns the same shape, ``jac(t, u)`` returns
``(..., d, d)``.  All built-in systems are autonomous and ignore ``t``.
A system carries no Lyapunov exponent: a ``lyapunov`` weight takes its
``lam`` from the run config (the presets use ``LORENZ63_LAMBDA``).

``jvp(t, u, G)`` applies the derivative of ``rhs`` at ``u`` to a tangent
block ``G`` of shape ``(..., d, m)`` without forming the Jacobian; tangent
steps use it.  Each built-in one differentiates its ``rhs`` term by term
(Lorenz-96 touches 4 entries per row where the dense product touches
``d``), so it agrees with ``jac(t, u) @ G`` to rounding, bitwise for
``d == 1``.  A system built without one gets ``jac(t, u) @ G``.

The integrators have two faster steps (see ``integrators``), and each
system says which of them it supports:

* Lorenz-63 carries a Python-float right-hand side, used to advance a
  single state on an explicit tableau: ``scalar_rhs(t, u)`` takes a
  sequence of ``d`` floats and returns a tuple.
* All four built-in systems carry ``kernel = (code, params)``, which names
  the right-hand side and ``jvp`` of the compiled kernel (``_kernel.c``)
  and their parameters; it advances batches, the other single states and
  tangent blocks.

Each evaluates the same expressions in the same order as its array
counterpart, so the results are bitwise equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError

Array = np.ndarray


def _dense_jvp(jac, t, u, G):
    return jac(t, u) @ G


@dataclass(frozen=True)
class OdeSystem:
    """An autonomous ODE u' = f(u) with analytic Jacobian."""

    name: str
    dim: int
    params: dict = field(default_factory=dict)
    rhs: Callable[[float, Array], Array] = None
    jac: Callable[[float, Array], Array] = None
    # Optional tangent product, float right-hand side and compiled-kernel spec
    # ``(code, params)``; a system built with ``dataclasses.replace`` keeps
    # them, so replace them too when the dynamics change.  The default
    # ``jvp``, ``jac(t, u) @ G``, follows the new ``jac`` by itself.
    jvp: Optional[Callable[[float, Array, Array], Array]] = None
    scalar_rhs: Optional[Callable[[float, Sequence[float]], tuple]] = None
    kernel: Optional[tuple] = None

    def __post_init__(self):
        if self.jvp is None or getattr(self.jvp, "func", None) is _dense_jvp:
            object.__setattr__(self, "jvp", partial(_dense_jvp, self.jac))


def make_logistic() -> OdeSystem:
    """Scalar logistic growth u' = u(1 - u)."""

    def rhs(t, u):
        return u * (1.0 - u)

    def jac(t, u):
        return (1.0 - 2.0 * u)[..., np.newaxis]

    def jvp(t, u, G):
        return (1.0 - 2.0 * u)[..., np.newaxis] * G

    return OdeSystem(name="logistic", dim=1, params={}, rhs=rhs, jac=jac,
                     jvp=jvp, kernel=("logistic", ()))


def make_linear(a: float = 1.0) -> OdeSystem:
    """Scalar linear test problem u' = a u (growth rate exactly ``a``)."""

    def rhs(t, u):
        return a * u

    def jac(t, u):
        out = np.empty(u.shape + (1,))
        out[...] = a
        return out

    def jvp(t, u, G):
        return a * G

    return OdeSystem(name="linear", dim=1, params={"a": a}, rhs=rhs, jac=jac,
                     jvp=jvp, kernel=("linear", (a,)))


def make_lorenz63(sigma: float = 10.0, rho: float = 28.0,
                  b: float = 8.0 / 3.0) -> OdeSystem:
    """Three-variable convection model in its chaotic standard regime."""

    def rhs(t, u):
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        out = np.empty_like(u)
        out[..., 0] = sigma * (y - x)
        out[..., 1] = x * (rho - z) - y
        out[..., 2] = x * y - b * z
        return out

    def jac(t, u):
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        out = np.zeros(u.shape + (3,))
        out[..., 0, 0] = -sigma
        out[..., 0, 1] = sigma
        out[..., 1, 0] = rho - z
        out[..., 1, 1] = -1.0
        out[..., 1, 2] = -x
        out[..., 2, 0] = y
        out[..., 2, 1] = x
        out[..., 2, 2] = -b
        return out

    def jvp(t, u, G):
        x, y, z = u[..., 0, None], u[..., 1, None], u[..., 2, None]
        gx, gy, gz = G[..., 0, :], G[..., 1, :], G[..., 2, :]
        out = np.empty(np.broadcast_shapes(u.shape[:-1] + (3, 1), G.shape))
        out[..., 0, :] = sigma * (gy - gx)
        out[..., 1, :] = gx * (rho - z) - x * gz - gy
        out[..., 2, :] = gx * y + x * gy - b * gz
        return out

    def scalar_rhs(t, u):
        x, y, z = u
        return (sigma * (y - x), x * (rho - z) - y, x * y - b * z)

    return OdeSystem(name="lorenz63", dim=3,
                     params={"sigma": sigma, "rho": rho, "b": b},
                     rhs=rhs, jac=jac, jvp=jvp, scalar_rhs=scalar_rhs,
                     kernel=("lorenz63", (sigma, rho, b)))


def make_lorenz96(D: int = 40, F: float = 8.0) -> OdeSystem:
    """Cyclic advection-forcing chain x_i' = (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F.

    Indices are cyclic modulo ``D``; requires ``D >= 4`` so the four coupled
    neighbours are distinct.
    """
    if D < 4:
        raise ConfigError(f"lorenz96 needs dimension D >= 4, got D={D}")

    idx = np.arange(D)
    ip1 = (idx + 1) % D
    im1 = (idx - 1) % D
    im2 = (idx - 2) % D

    # ``take`` gathers the same elements as fancy indexing at a fraction of
    # the per-call cost, most of all on single states.
    def rhs(t, u):
        return ((u.take(ip1, axis=-1) - u.take(im2, axis=-1))
                * u.take(im1, axis=-1) - u + F)

    def jac(t, u):
        out = np.zeros(u.shape + (D,))
        out[..., idx, ip1] = u[..., im1]
        out[..., idx, im2] = -u[..., im1]
        out[..., idx, im1] = u[..., ip1] - u[..., im2]
        out[..., idx, idx] += -1.0
        return out

    # The rhs differentiated term by term: 4 entries of G per row instead of
    # a dense d x d product, in the order of
    # ((G[i+1] - G[i-2]) u[i-1] + (u[i+1] - u[i-2]) G[i-1]) - G[i].
    # The two products are new arrays of the promoted dtype and shape; the
    # sums then accumulate in place.
    def jvp(t, u, G):
        u = u[..., np.newaxis]
        out = (G.take(ip1, axis=-2) - G.take(im2, axis=-2)) * u.take(im1, axis=-2)
        out += G.take(im1, axis=-2) * (u.take(ip1, axis=-2) - u.take(im2, axis=-2))
        out -= G
        return out

    # No ``scalar_rhs``: at d = 40 a step on Python lists is slower than the
    # array step; single states take the compiled kernel.
    return OdeSystem(name="lorenz96", dim=D, params={"D": D, "F": F},
                     rhs=rhs, jac=jac, jvp=jvp, kernel=("lorenz96", (F,)))


_BUILDERS = {
    "logistic": make_logistic,
    "lorenz63": make_lorenz63,
    "lorenz96": make_lorenz96,
}


def build_system(name: str, params: dict | None = None) -> OdeSystem:
    """Construct a built-in system by name with optional parameter overrides."""
    if name not in _BUILDERS:
        raise ConfigError(
            f"unknown system {name!r}; expected one of {sorted(_BUILDERS)}")
    params = dict(params or {})
    try:
        return _BUILDERS[name](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for system {name!r}: {exc}") from exc


def default_initial_state(system: OdeSystem) -> Array:
    """Conventional starting point for a built-in system.

    logistic: small positive seed below the carrying capacity;
    lorenz63: the classic (1, 1, 1); lorenz96: rest state ``x_i = F`` with a
    small perturbation on the first coordinate.  All are overridable through
    the run configuration.
    """
    if system.name == "logistic":
        return np.array([1e-3])
    if system.name == "lorenz63":
        return np.array([1.0, 1.0, 1.0])
    if system.name == "lorenz96":
        F = system.params["F"]
        u0 = np.full(system.dim, F, dtype=float)
        u0[0] += 0.01
        return u0
    if system.name == "linear":
        return np.array([1.0])
    raise ConfigError(f"no default initial state for system {system.name!r}")
