"""The corrected parallel-in-time iteration.

One iteration: every chunk is advanced independently with the fine
propagator from the previous iterate (a data-parallel sweep, realised here
as one batched integration), then a strictly sequential coarse sweep applies
the correction

    U_n^k = G(U_{n-1}^k) + F(U_{n-1}^{k-1}) - G(U_{n-1}^{k-1}).

``_iterate`` is that one step for both entry points: ``parareal_iterate``
runs it with no history, and ``parareal_solve`` runs it with a memo.  Within
a solve, a chunk whose input row is bitwise equal to its input in the
previous iteration is not propagated again: its fine image is copied from
the previous fine sweep and its coarse image from the previous correction
sweep (the coarse guess on the first iteration).  After k iterations the
first k chunk inputs are exact and repeat bit for bit, as can a tail that
has stopped changing in floating point, so iteration k propagates at most
N - k + 1 fine and N - k coarse chunks.
``RunReport.propagated`` records both counts per iteration.  A propagation
is a pure function of its start time and input row, so the copies are
exactly the values a recomputation would give.

The output is schedule-independent: chunk propagations share no state and the
correction order is fixed, so any worker assignment reproduces the same bits.
The compiled kernel uses that: it splits a large batch into row blocks that
run on threads at once (see ``_kernel``), with the same bits as one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import criteria
from .criteria import StopCriterion
from .errors import ConfigError, NumericalFailure
from .integrators import GridSpec, Propagator, _walk, propagate
from .systems import OdeSystem

Array = np.ndarray


class TrajectoryVec:
    """Interface values U_0 ... U_N of a chunked trajectory: ``states``, a
    frozen ``(N+1, d)`` copy, so that iterate snapshots can be shared."""

    __slots__ = ("states",)

    def __init__(self, states: Array):
        states = np.array(states, dtype=float, copy=True)
        if states.ndim != 2:
            raise ConfigError(
                f"trajectory states must be (N+1, d), got shape {states.shape}")
        states.setflags(write=False)
        self.states = states


@dataclass
class RunReport:
    """Outcome of a solve: iteration count, histories, optional snapshots.

    ``propagated[k-1]`` is ``(fine_rows, coarse_chunks)``: the chunks that
    iteration k actually propagated, the others being bitwise repeats.
    """

    K: int
    solution: TrajectoryVec
    residual_history: List[float]
    lipschitz_history: List[float]
    iterates: Optional[List[TrajectoryVec]] = None
    fine_reference: Optional[TrajectoryVec] = None
    propagated: List[Tuple[int, int]] = field(default_factory=list)


def _serial(prop: Propagator, system: OdeSystem, grid: GridSpec,
            u0: Array) -> TrajectoryVec:
    """Sequential propagation of ``u0`` through the N chunks by
    ``integrators._walk``, one compiled call per chunk where it can."""
    states, failure = _walk(prop.tableau, system, prop.step, u0,
                            np.arange(grid.N + 1) * prop.steps_per_call)
    if failure is not None:
        raise failure.in_chunk("sweep", len(states)) from failure
    return TrajectoryVec(states)


def coarse_sweep(coarse: Propagator, system: OdeSystem, grid: GridSpec,
                 u0: Array) -> TrajectoryVec:
    """Initial guess: sequential coarse propagation from the initial state."""
    return _serial(coarse, system, grid, u0)


def fine_serial_reference(fine: Propagator, system: OdeSystem, grid: GridSpec,
                          u0: Array) -> TrajectoryVec:
    """The target trajectory: sequential fine propagation (zero jumps)."""
    return _serial(fine, system, grid, u0)


def _changed_rows(a: Array, b: Array) -> Array:
    """Indices of the rows of ``a`` not bitwise equal to the same row of ``b``.

    Compared as ``uint64`` so that ``-0.0`` and ``0.0`` differ and equal NaNs
    match, as a bitwise copy requires.
    """
    return np.flatnonzero(np.any(a.view(np.uint64) != b.view(np.uint64), axis=-1))


def _fine_sweep_batched(fine: Propagator, system: OdeSystem, grid: GridSpec,
                        states: Array, prev_states: Optional[Array] = None,
                        prev_values: Optional[Array] = None) -> Array:
    """Fine-propagate the N chunk inputs ``states[:-1]`` independently.

    The changed rows run as one batch.  Given the previous iterate
    ``prev_states`` and its fine values ``prev_values``, a row bitwise equal
    to its previous input is copied from ``prev_values`` instead.
    """
    inputs = states[:-1]
    if prev_states is None:
        todo = np.arange(grid.N)
        values = np.empty_like(inputs)
    else:
        todo = _changed_rows(inputs, prev_states[:-1])
        values = prev_values.copy()
        if todo.size == 0:
            return values
    try:
        values[todo] = propagate(fine, system, todo * grid.dT, inputs[todo])
    except NumericalFailure as exc:
        chunk = None if exc.chunk_index is None else int(todo[exc.chunk_index]) + 1
        raise exc.in_chunk("fine sweep", chunk) from exc
    return values


def _correction_sweep(coarse: Propagator, system: OdeSystem, grid: GridSpec,
                      u0: Array, fine_values: Array, coarse_prev: Array,
                      prev_states: Optional[Array] = None
                      ) -> tuple[Array, Array]:
    """Sequential corrected coarse sweep; returns new iterate and its coarse values.

    ``coarse_prev[n-1]`` is the coarse image of ``prev_states[n-1]``; given
    ``prev_states``, it is reused for a chunk whose input is bitwise equal.
    """
    N, d = grid.N, system.dim
    nxt = np.empty((N + 1, d))
    g_new = np.empty((N, d))
    nxt[0] = u0
    for n in range(1, N + 1):
        if (prev_states is not None
                and nxt[n - 1].tobytes() == prev_states[n - 1].tobytes()):
            g_new[n - 1] = coarse_prev[n - 1]
        else:
            try:
                g_new[n - 1] = propagate(coarse, system, (n - 1) * grid.dT,
                                         nxt[n - 1])
            except NumericalFailure as exc:
                raise exc.in_chunk("correction sweep", n) from exc
        # Grouping the coarse terms keeps the cancellation exact once a chunk
        # input has converged bitwise, so early chunks lock onto the fine
        # solution without rounding drift.
        nxt[n] = fine_values[n - 1] + (g_new[n - 1] - coarse_prev[n - 1])
    return nxt, g_new


def _iterate(fine: Propagator, coarse: Propagator, system: OdeSystem,
             grid: GridSpec, u0: Array, states: Array, coarse_images: Array,
             memo: Optional[tuple] = None) -> tuple[Array, Array, Array]:
    """One corrected iteration from the interface array ``states``.

    ``coarse_images[n-1]`` is the coarse image of ``states[n-1]``.  Returns
    the next iterate, the fine images of ``states`` and the coarse images of
    the next iterate's chunk inputs.  Without ``memo`` every chunk is
    propagated.  A solve passes ``memo = (older, fine_older)``, the previous
    iteration's input and its fine images (``None`` on the first
    iteration): a fine row whose input repeats ``older`` bitwise is copied
    from ``fine_older``, and a coarse chunk whose input repeats ``states``
    bitwise is copied from ``coarse_images``.
    """
    older, fine_older = (None, None) if memo is None else memo
    fine_values = _fine_sweep_batched(fine, system, grid, states, older,
                                      fine_older)
    nxt, coarse_next = _correction_sweep(coarse, system, grid, u0, fine_values,
                                         coarse_images,
                                         None if memo is None else states)
    return nxt, fine_values, coarse_next


def parareal_iterate(U_prev: TrajectoryVec, fine: Propagator,
                     coarse: Propagator, system: OdeSystem,
                     grid: GridSpec, u0: Array | None = None
                     ) -> tuple[TrajectoryVec, List[Array]]:
    """One corrected iteration from ``U_prev``, with no history.

    Returns the next iterate together with the fine chunk values
    ``F(U_prev[n-1])``, which stopping criteria and the Lipschitz estimator
    reuse.  When a chunk input already matches the fixed point bitwise, the
    coarse terms cancel exactly and the chunk output equals the fine value:
    the first k chunks are exact after k iterations.

    The corrected sweep restarts from the problem's initial state ``u0``
    (defaulting to ``U_prev[0]``, which equals it for any in-contract
    iterate); the zeroth slot of the input only feeds the mismatch term.
    """
    states = U_prev.states
    start = states[0] if u0 is None else np.asarray(u0, dtype=float)
    coarse_images = propagate(coarse, system, np.arange(grid.N) * grid.dT,
                              states[:-1])
    nxt, fine_values, _ = _iterate(fine, coarse, system, grid, start, states,
                                   coarse_images)
    return TrajectoryVec(nxt), list(fine_values)


def parareal_solve(system: OdeSystem, grid: GridSpec, fine: Propagator,
                   coarse: Propagator, criterion: StopCriterion, u0: Array,
                   store_iterates: bool = False) -> RunReport:
    """Iterate from the coarse initial guess until the criterion fires.

    Protocol per iteration k: the fine sweep of U^{k-1} and the corrected
    iterate U^k are formed; the standard check then compares U^k against
    U^{k-1}, while the proximity check scores U^{k-1} from the jumps already
    in hand.  K is the number of iterations executed.  The loop is capped at
    k = N, where the iterate provably equals the fine reference (finite
    termination), so a run that exhausts the cap has converged too.
    """
    guess = coarse_sweep(coarse, system, grid, u0)
    iterates = [guess] if store_iterates else None
    U_prev = guess
    # The coarse sweep satisfies G(U^0_{n-1}) = U^0_n, seeding the memo.
    coarse_images = guess.states[1:].copy()
    older: Optional[Array] = None
    fine_older: Optional[Array] = None
    lam_est = 1.0

    residual_history: List[float] = []
    lipschitz_history: List[float] = []
    propagated: List[Tuple[int, int]] = []
    for _ in range(grid.N):
        states = U_prev.states
        nxt, fine_values, coarse_images = _iterate(
            fine, coarse, system, grid, states[0], states, coarse_images,
            (older, fine_older))
        U_curr = TrajectoryVec(nxt)
        propagated.append((
            grid.N if older is None
            else _changed_rows(states[:-1], older[:-1]).size,
            _changed_rows(nxt[:-1], states[:-1]).size))

        if criterion.weight == "lipschitz":
            if fine_older is not None:
                lam_est = criteria.update_lipschitz(
                    lam_est, states, older, fine_values, fine_older)
            lipschitz_history.append(lam_est)
        w = criteria.base_weight(criterion.weight, criterion.lam, grid.dT,
                                 lam_est)
        fired, value = criteria.check(criterion, U_curr, U_prev, fine_values, w)
        residual_history.append(value)
        if store_iterates:
            iterates.append(U_curr)
        if fired:
            break
        older, fine_older, U_prev = states, fine_values, U_curr

    # At the cap, U^N is the fine solution by finite termination.
    return RunReport(K=len(residual_history), solution=U_curr,
                     residual_history=residual_history,
                     lipschitz_history=lipschitz_history,
                     propagated=propagated, iterates=iterates)
