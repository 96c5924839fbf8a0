"""Runge-Kutta propagators over time chunks, with tangent propagation.

States are numpy arrays of shape ``(..., d)``: any leading axes are treated
as independent batch dimensions, so a whole set of time chunks can be
advanced in lock-step.  Elementwise arithmetic is identical whether states
are advanced one at a time or as a batch, which is what makes the engine's
chunk-parallel sweep schedule-independent.

An implicit tableau has one stage, solved by Newton's method to the
tolerance and iteration limit that ``_kernel`` defines for every path
(``NEWTON_TOL``, ``NEWTON_MAXITER``).

Two faster steps give the same bits as the numpy step, which stays the
reference.  :func:`propagate` and :func:`propagate_with_tangent` run one
chunk on the first that covers the input:

* the compiled kernel (``_kernel.c``, built on first use), when the system
  has a ``kernel`` spec and the tableau is explicit, or implicit with
  ``d == 1``: one foreign call advances the whole ``(n, d)`` batch over the
  chunk;
* the float step, a single ``(d,)`` state on Python floats, when the system
  supplies ``scalar_rhs`` (Lorenz-63 alone does) and the tableau is
  explicit;
* the numpy step.

Only ``engine``'s corrected coarse sweep calls the float step
(:func:`_float_chunk`) before the kernel; the comment there says why.

Both perform the same IEEE operations in the same order as the numpy step
(see ``_kernel.c`` for the compiler flags this needs); a numpy call on a
small array is almost all per-call overhead.  Measured per step from
``propagate`` on a 2-core machine (Python 3.11, numpy 2.4.6, gcc 12), every
output bitwise equal to the numpy step's:

    case                    rows    numpy     float    compiled
    Lorenz-63 RK4              1    76 us     11 us     0.06 us
    Lorenz-63 RK4            128   109 us        -       6.7 us
    Lorenz-96 (d=40) RK4       1    50 us        -      0.44 us
    Lorenz-96 (d=40) RK4      64   189 us        -        36 us
    logistic implicit Euler    1   121 us        -      0.04 us
    logistic implicit Euler  128   113 us        -       2.4 us

A compiled chunk call costs about 3-5 us on top of its steps, which is
most of a short stretch, so a serial walk through many interfaces
(:func:`_walk`: the coarse guess, the fine reference and a sweep's shared
reference walk) is one call for all its stretches, not one per stretch.
Per walk on the seed-0 benchmark workloads, same machine (minima of 200
calls), with a call per stretch and with one call:

    walk                                 stretches   per stretch   one call
    logistic-strong-sweep shared walk        128    0.91-1.25 ms    0.40 ms
    l63-horizon-sweep shared walk             96      1.55 ms    0.57-0.85 ms
    l96-solve-bound fine reference            64    4.4-5.0 ms   4.0-4.7 ms
    logistic-strong-sweep coarse guesses     480    3.2-3.7 ms      0.28 ms
    l63-horizon-sweep coarse guesses         384    3.6-3.7 ms   0.57-0.61 ms

(the coarse guesses are those of one round, one walk per row).

Tangent blocks of shape ``(..., d, m)`` can be carried along any step; they
are advanced with the exact derivative of the discrete step map (each stage
is differentiated, its slope taken by the system's ``jvp``), so ``m = d``
with an identity seed yields the exact Jacobian of the numerical chunk map.
The compiled kernel carries them in the same call as the state when the
tableau is explicit and the block is float64 with shape ``u.shape + (m,)``,
advancing in place a copy of the caller's block, or the identity seed that
:func:`propagate_with_jacobian` makes for itself.  Per RK4 step from
:func:`propagate_with_tangent`, same machine:

    tangent block            steps/call     numpy    compiled
    Lorenz-96 (65, 40, 40)       300       6.8 ms      1.2 ms
    Lorenz-63 (3, 1)             100       115 us      0.2 us

On numpy the structured ``jvp`` is slower than the dense ``jac @ G`` it
replaced (3.4 ms and 100 us): at ``m = d = 40`` its gathers move more memory
than one batched matrix product.  The compiled kernel forms each entry from
its four neighbours in one pass.

A compiled explicit call with enough work (``_kernel.MIN_WORK``) is split
into row blocks that run on threads at once, bitwise equal to one call: on
2 CPUs the Lorenz-96 tangent call above ran 1.7-1.9x faster and a
``(64, 40)`` fine sweep of 300 steps 1.1-1.6x (see ``_kernel``).

The stepwise re-run that names a failing step uses the numpy step, and so
does everything when no C compiler is available (:func:`kernel_path`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import _kernel
from ._kernel import NEWTON_MAXITER, NEWTON_TOL
from .errors import (BlowUpError, ConfigError, NumericalFailure,
                     StepFailureError, require_positive)
from .systems import OdeSystem

Array = np.ndarray


@dataclass(frozen=True)
class ButcherTableau:
    """Runge-Kutta coefficients (A, b, c) with stated order."""

    name: str
    A: Array
    b: Array
    c: Array
    order: int
    is_explicit: bool = field(init=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        c = np.asarray(self.c, dtype=float).ravel()
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        s = b.size
        if A.shape != (s, s) or c.size != s:
            raise ConfigError(f"tableau {self.name!r}: inconsistent shapes")
        if abs(b.sum() - 1.0) > 1e-12:
            raise ConfigError(f"tableau {self.name!r}: weights must sum to 1")
        if np.max(np.abs(A.sum(axis=1) - c)) > 1e-12:
            raise ConfigError(f"tableau {self.name!r}: c must equal row sums of A")
        explicit = bool(np.all(np.triu(A) == 0.0))
        if not explicit and s > 1:
            raise ConfigError(f"tableau {self.name!r}: an implicit tableau "
                              f"must have one stage, got {s}")
        object.__setattr__(self, "is_explicit", explicit)

    @property
    def s(self) -> int:
        return self.b.size


RK4 = ButcherTableau(
    name="rk4",
    A=[[0.0, 0.0, 0.0, 0.0],
       [0.5, 0.0, 0.0, 0.0],
       [0.0, 0.5, 0.0, 0.0],
       [0.0, 0.0, 1.0, 0.0]],
    b=[1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
    c=[0.0, 0.5, 0.5, 1.0],
    order=4,
)

IMPLICIT_EULER = ButcherTableau(
    name="implicit_euler", A=[[1.0]], b=[1.0], c=[1.0], order=1)

EULER = ButcherTableau(name="euler", A=[[0.0]], b=[1.0], c=[0.0], order=1)

HEUN = ButcherTableau(
    name="heun", A=[[0.0, 0.0], [1.0, 0.0]], b=[0.5, 0.5], c=[0.0, 1.0],
    order=2)

TABLEAUX = {t.name: t for t in (RK4, IMPLICIT_EULER, EULER, HEUN)}


def get_tableau(name: str) -> ButcherTableau:
    if name not in TABLEAUX:
        raise ConfigError(
            f"unknown tableau {name!r}; expected one of {sorted(TABLEAUX)}")
    return TABLEAUX[name]


def stability_function(tableau: ButcherTableau, z: complex) -> complex:
    """R(z) = 1 + z b^T (I - z A)^{-1} 1, the scalar step amplification."""
    s = tableau.s
    M = np.eye(s) - z * tableau.A
    return 1.0 + z * (tableau.b @ np.linalg.solve(M, np.ones(s)))


@dataclass(frozen=True)
class GridSpec:
    """Uniform chunk grid: N chunks of length dT = T/N, dT = L * xi * h."""

    T: float
    N: int
    dT: float
    xi: int
    L: int
    h: float

    def __post_init__(self):
        if self.N < 1 or self.L < 1 or self.xi < 1:
            raise ConfigError("grid needs N >= 1, L >= 1, xi >= 1")
        if not np.isclose(self.N * self.dT, self.T, rtol=1e-9, atol=0.0):
            raise ConfigError(f"grid: N*dT = {self.N * self.dT} != T = {self.T}")
        if not np.isclose(self.L * self.xi * self.h, self.dT, rtol=1e-9, atol=0.0):
            raise ConfigError(
                f"grid: L*xi*h = {self.L * self.xi * self.h} != dT = {self.dT}")

    @classmethod
    def make(cls, T: float, N: int, xi: int, h: float | None = None,
             L: int | None = None) -> "GridSpec":
        """Resolve the grid from T, N, xi and exactly one of h, L.

        If both are given they must be consistent; the one omitted is derived.
        Errors name the config field that holds the bad value.
        """
        require_positive("T", T)
        if h is not None:
            require_positive("h", h)
        for name, value in (("N", N), ("xi", xi), ("L", L)):
            if value is not None and not (value >= 1
                                          and float(value).is_integer()):
                raise ConfigError(
                    f"{name}: must be a whole number >= 1, got {value}")
        if h is None and L is None:
            raise ConfigError("grid: provide at least one of h, L")
        dT = T / N
        if L is None:
            L_float = dT / (xi * h)
            L = int(round(L_float))
            if L < 1 or not np.isclose(L, L_float, rtol=1e-9, atol=0.0):
                raise ConfigError(
                    f"grid: dT/(xi*h) = {L_float} is not a positive integer; "
                    f"choose h so the coarse step count per chunk is whole")
        if h is None:
            h = dT / (L * xi)
        return cls(T=T, N=int(N), dT=dT, xi=int(xi), L=int(L), h=float(h))

    @property
    def interface_times(self) -> Array:
        return np.arange(self.N + 1) * self.dT


@dataclass(frozen=True)
class Propagator:
    """A fixed-step RK map applied ``steps_per_call`` times per chunk."""

    tableau: ButcherTableau
    step: float
    steps_per_call: int
    # Coefficients of the float step and the compiled kernel: per stage
    # (c_i h, nonzero (j, h A_ij)), then the nonzero (i, h b_i), products
    # formed as the array step forms them.
    float_coeffs: tuple = field(init=False, repr=False, compare=False)
    # Compiled-kernel calls for this propagator, keyed by ``system.kernel``.
    _compiled: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if self.step <= 0.0:
            raise ConfigError(f"propagator: step must be > 0, got {self.step}")
        if self.steps_per_call < 1:
            raise ConfigError("propagator: steps_per_call must be >= 1")
        A, b, c, h = self.tableau.A, self.tableau.b, self.tableau.c, self.step
        s = self.tableau.s
        stages = tuple(
            (float(c[i] * h),
             tuple((j, float(h * A[i, j])) for j in range(s) if A[i, j] != 0.0))
            for i in range(s))
        weights = tuple((i, float(h * b[i])) for i in range(s) if b[i] != 0.0)
        object.__setattr__(self, "float_coeffs", (stages, weights))


def fine_propagator(grid: GridSpec, tableau: ButcherTableau) -> Propagator:
    return Propagator(tableau=tableau, step=grid.h,
                      steps_per_call=grid.L * grid.xi)


def coarse_propagator(grid: GridSpec, tableau: ButcherTableau) -> Propagator:
    return Propagator(tableau=tableau, step=grid.xi * grid.h,
                      steps_per_call=grid.L)


def _step_explicit(tableau, system, t, u, h, tangent):
    """One explicit RK step; state arithmetic identical with/without tangent."""
    A, b, c = tableau.A, tableau.b, tableau.c
    s = tableau.s
    k = [None] * s
    kt = [None] * s
    for i in range(s):
        Y = u
        for j in range(i):
            if A[i, j] != 0.0:
                Y = Y + (h * A[i, j]) * k[j]
        ti = t + c[i] * h
        k[i] = system.rhs(ti, Y)
        if tangent is not None:
            G = tangent
            for j in range(i):
                if A[i, j] != 0.0:
                    G = G + (h * A[i, j]) * kt[j]
            kt[i] = system.jvp(ti, Y, G)
    u_next = u
    for i in range(s):
        if b[i] != 0.0:
            u_next = u_next + (h * b[i]) * k[i]
    if tangent is None:
        return u_next, None
    t_next = tangent
    for i in range(s):
        if b[i] != 0.0:
            t_next = t_next + (h * b[i]) * kt[i]
    return u_next, t_next


def _solve_small(M, rhs):
    """Batched linear solve of M x = rhs for matrix-shaped rhs.

    1x1 systems reduce to elementwise division, which keeps the arithmetic
    identical between batched and one-at-a-time evaluation.
    """
    if M.shape[-1] == 1 and M.shape[-2] == 1:
        return rhs / M[..., 0:1, 0:1]
    return np.linalg.solve(M, rhs)


def _step_implicit(tableau, system, t, u, h, tangent):
    """One-stage implicit step (e.g. backward Euler), Newton on the stage."""
    a00 = tableau.A[0, 0]
    b0 = tableau.b[0]
    ts = t + tableau.c[0] * h
    d = u.shape[-1]
    eye = np.eye(d)
    y = u.copy()
    tol_eff = NEWTON_TOL * np.maximum(1.0, np.max(np.abs(u), axis=-1))
    for _ in range(NEWTON_MAXITER):
        f = system.rhs(ts, y)
        R = y - u - (h * a00) * f
        res = np.max(np.abs(R), axis=-1)
        converged = res <= tol_eff
        if np.all(converged):
            break
        M = eye - (h * a00) * system.jac(ts, y)
        delta = _solve_small(M, -R[..., np.newaxis])[..., 0]
        if np.all(~converged):
            y = y + delta
        else:
            y = np.where(converged[..., np.newaxis], y, y + delta)
    else:
        residual = float(np.max(res))
        raise StepFailureError(
            f"implicit stage solve did not converge in {NEWTON_MAXITER} "
            f"iterations (max residual {residual:.3e})", residual=residual,
            chunk_index=None if converged.ndim == 0
            else int(np.argmin(converged)))
    u_next = u + (h * b0) * f
    if tangent is None:
        return u_next, None
    J = system.jac(ts, y)
    M = eye - (h * a00) * J
    G = _solve_small(M, tangent)
    return u_next, tangent + (h * b0) * (J @ G)


def rk_step(tableau: ButcherTableau, system: OdeSystem, t, u: Array,
            h: float) -> Array:
    """Advance ``u`` by one step of size ``h`` with the given tableau."""
    if h < 0.0:
        raise ConfigError(f"rk_step: h must be >= 0, got {h}")
    if h == 0.0:
        return u.copy()
    step = _step_explicit if tableau.is_explicit else _step_implicit
    return step(tableau, system, t, u, h, None)[0]


def rk_step_with_tangent(tableau: ButcherTableau, system: OdeSystem, t,
                         u: Array, tangent: Array, h: float):
    """One RK step carrying a tangent block (exact step-map derivative)."""
    if h == 0.0:
        return u.copy(), tangent.copy()
    step = _step_explicit if tableau.is_explicit else _step_implicit
    return step(tableau, system, t, u, h, tangent)


def _at_step(step_index, row):
    """Where in a chunk it failed: the step, and the batch row of a batch."""
    return (f"at internal step {step_index}"
            + ("" if row is None else f" (batch element {row})"))


# Overflow in a numpy step loop is expected on the way to a blow-up, so numpy
# stays quiet there: the chunk-end finite check, and then the BlowUpError, is
# the one report.
_quiet = partial(np.errstate, over="ignore", invalid="ignore", divide="ignore")


def _locate_failure(prop, system, t0, u):
    """Re-run a failed chunk on the numpy step, one step at a time, to name
    the step and the batch row where it blows up or its Newton solve fails."""
    t0 = np.asarray(t0, dtype=float)
    with _quiet():
        for i in range(prop.steps_per_call):
            try:
                u = rk_step(prop.tableau, system, t0 + i * prop.step, u, prop.step)
            except StepFailureError as exc:
                raise StepFailureError(
                    f"{exc} {_at_step(i, exc.chunk_index)}", exc.residual, i,
                    exc.chunk_index) from None
            ok = np.isfinite(u).all(axis=-1)
            if not np.all(ok):
                bad = None if ok.ndim == 0 else int(np.argmin(ok))
                raise BlowUpError(f"state became non-finite {_at_step(i, bad)}",
                                  i, bad)
    raise BlowUpError("chunk failed, but not when re-run step by step")


def _float_step_explicit(rhs, coeffs, t, u):
    """One explicit RK step on a list of floats; mirrors :func:`_step_explicit`."""
    stages, weights = coeffs
    k = []
    for ch, row in stages:
        Y = u
        for j, a in row:
            Y = [y + a * kj for y, kj in zip(Y, k[j])]
        k.append(rhs(t + ch, Y))
    for i, hb in weights:
        u = [y + hb * ki for y, ki in zip(u, k[i])]
    return u


def _float_chunk(prop: Propagator, system: OdeSystem, t0, u):
    """The chunk on Python floats, bitwise equal to the numpy step, for a
    ``(d,)`` float64 state at a scalar start time of a system with
    ``scalar_rhs`` on an explicit tableau; None for any other input."""
    if (system.scalar_rhs is None or not prop.tableau.is_explicit
            or np.ndim(t0) != 0 or not isinstance(u, np.ndarray)
            or u.dtype != np.float64 or u.shape != (system.dim,)):
        return None
    t_start, y = float(t0), u.tolist()
    for i in range(prop.steps_per_call):
        y = _float_step_explicit(system.scalar_rhs, prop.float_coeffs,
                                 t_start + i * prop.step, y)
    out = np.array(y)
    if not np.isfinite(out).all():
        _locate_failure(prop, system, t0, u)
    return out


def _covers(tableau: ButcherTableau, system: OdeSystem, u,
            tangent=None) -> bool:
    """Whether the compiled kernel can run this input: a state on an
    explicit tableau, or with ``d == 1`` on the one-stage implicit one, and
    a tangent block only on an explicit tableau, as a C-contiguous float64
    array of shape ``u.shape + (m,)``."""
    return not (
        system.kernel is None or not isinstance(u, np.ndarray)
        or u.dtype != np.float64 or u.ndim == 0 or u.size == 0
        or u.shape[-1] != system.dim
        or not (tableau.is_explicit or system.dim == 1 and tangent is None)
        or tangent is not None and not (
            tangent.dtype == np.float64 and tangent.flags.c_contiguous
            and tangent.shape[:-1] == u.shape and tangent.shape[-1] > 0))


def _compiled_kernel(prop: Propagator, system: OdeSystem, u, tangent=None):
    """The compiled chunk call for this input, or None when the kernel
    cannot run it (see :func:`_covers`)."""
    if not _covers(prop.tableau, system, u, tangent):
        return None
    if system.kernel not in prop._compiled:
        prop._compiled[system.kernel] = _kernel.runner(
            system.kernel, prop.float_coeffs, not prop.tableau.is_explicit,
            prop.steps_per_call)
    return prop._compiled[system.kernel]


def kernel_path() -> str:
    """``"c"`` when the compiled kernel is available, else ``"numpy"``."""
    return "numpy" if _kernel.load() is None else "c"


def _chunk(prop: Propagator, system: OdeSystem, t0, u: Array, tangent=None):
    """``(out, tangent)`` of one chunk, for :func:`propagate` (no block) and
    :func:`propagate_with_tangent`: on the compiled kernel where it covers
    the input (its code ``OK`` passes, ``FAILED`` fails the chunk and
    ``NO_MEMORY`` raises; it advances ``tangent`` in place, so callers pass
    a block of their own), else the float step for a single state where the
    system has one, else the numpy step.  The tangent is checked here."""
    run = _compiled_kernel(prop, system, u, tangent)
    if run is None and tangent is None and (
            out := _float_chunk(prop, system, t0, u)) is not None:
        return out, None
    try:
        if run is not None:
            out, status = run(u, tangent)
            if status == _kernel.NO_MEMORY:
                raise MemoryError("compiled kernel: out of memory")
            finite = status == _kernel.OK
        else:
            out, t0 = u, np.asarray(t0, dtype=float)
            with _quiet():
                for i in range(prop.steps_per_call):
                    out, tangent = rk_step_with_tangent(
                        prop.tableau, system, t0 + i * prop.step, out, tangent,
                        prop.step)
            finite = np.isfinite(out).all()
    except StepFailureError:
        finite = False
    # One finite check per chunk: polynomial vector fields keep non-finite
    # values non-finite.  A failed chunk is re-run only to name its step.
    if not finite:
        _locate_failure(prop, system, t0, u)
    if tangent is not None and not np.isfinite(tangent).all():
        raise BlowUpError("tangent block became non-finite")
    return out, tangent


def propagate(prop: Propagator, system: OdeSystem, t0, u: Array) -> Array:
    """Apply the propagator over one chunk: steps_per_call fixed RK steps.

    ``u`` may carry leading batch axes; ``t0`` may then be an array of
    matching shape (per-chunk start times).  The input takes the compiled
    kernel where it covers the system and tableau, else the float step if
    it is a single state of a system with one, else the numpy step (see the
    module docstring); every output is bitwise equal to the numpy step's.
    """
    return _chunk(prop, system, t0, u)[0]


def _initial_state(system: OdeSystem, u0) -> Array:
    """``u0`` as a float array; a ConfigError unless its shape is ``(d,)``."""
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (system.dim,):
        raise ConfigError(
            f"initial state has shape {u0.shape}, system dimension is {system.dim}")
    return u0


def _walk(tableau: ButcherTableau, system: OdeSystem, h: float, u0,
          steps) -> tuple:
    """``(states, failure)`` of one state walked from ``u0`` through the step
    counts ``steps`` (from 0) of size ``h``.  Where the kernel covers the
    system and tableau, the whole walk is one compiled call; elsewhere, and
    from a stretch that call found failing, each stretch is one
    :func:`propagate` of the ``(d,)`` state.  A stretch's error is the
    failure: the walk stops there, and ``states`` ends before that
    stretch."""
    states = np.empty((len(steps), system.dim))
    states[0] = _initial_state(system, u0)
    lengths = np.diff(steps).astype(np.intc)
    done = 0
    if lengths.size and _covers(tableau, system, states[0]) and (
            walk := _kernel.walker(system.kernel,
                                   Propagator(tableau, h, 1).float_coeffs,
                                   not tableau.is_explicit)) is not None:
        states[1] = states[0]
        status, done = walk(states[1:], lengths)
        if status == _kernel.NO_MEMORY:
            raise MemoryError("compiled kernel: out of memory")
    props = {}  # one Propagator, and so one kernel runner, per stretch length
    for i in range(done + 1, len(steps)):
        start, length = int(steps[i - 1]), int(lengths[i - 1])
        prop = props[length] = props.get(length) or Propagator(tableau, h, length)
        try:
            states[i] = propagate(prop, system, start * h, states[i - 1])
        except NumericalFailure as exc:
            return states[:i], exc
    return states, None


def propagate_with_tangent(prop: Propagator, system: OdeSystem, t0, u: Array,
                           tangent: Array):
    """Chunk propagation carrying a tangent block alongside the state.

    The state output is bit-identical to :func:`propagate` on the same input:
    the state arithmetic is shared, the tangent recursion only reads it.  An
    explicit tableau with a float64 block of shape ``u.shape + (m,)`` takes
    the compiled kernel where it covers the system, with the same bits as
    the numpy step.  The caller's block is left as it was.
    """
    return _chunk(prop, system, t0, u, np.array(tangent, order="C"))


def propagate_with_jacobian(prop: Propagator, system: OdeSystem, t0,
                            u: Array):
    """Chunk propagation returning (output state, exact chunk-map Jacobian)."""
    d = u.shape[-1]
    eye = np.broadcast_to(np.eye(d), u.shape[:-1] + (d, d)).copy()
    return _chunk(prop, system, t0, u, eye)
