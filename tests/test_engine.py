import dataclasses

import numpy as np
import pytest

from paratime import engine, integrators
from paratime.criteria import WEIGHT_MODES, StopCriterion
from paratime.engine import (TrajectoryVec, coarse_sweep,
                             fine_serial_reference, parareal_iterate,
                             parareal_solve)
from paratime.errors import BlowUpError, ConfigError, StepFailureError
from paratime.integrators import (IMPLICIT_EULER, RK4, GridSpec, Propagator,
                                  _float_chunk, coarse_propagator,
                                  fine_propagator, kernel_path, propagate)
from paratime.systems import (default_initial_state, make_linear,
                              make_logistic, make_lorenz63, make_lorenz96)


@pytest.fixture
def logistic_setup():
    system = make_logistic()
    grid = GridSpec.make(T=3.2, N=8, xi=10, h=0.01)
    fine = fine_propagator(grid, IMPLICIT_EULER)
    coarse = coarse_propagator(grid, IMPLICIT_EULER)
    u0 = np.array([1e-3])
    return system, grid, fine, coarse, u0


@pytest.fixture
def lorenz_setup():
    system = make_lorenz63()
    grid = GridSpec.make(T=2.0, N=8, xi=10, h=1e-3)
    fine = fine_propagator(grid, RK4)
    coarse = coarse_propagator(grid, RK4)
    u0 = np.array([1.0, 1.0, 1.0])
    return system, grid, fine, coarse, u0


def test_trajectory_vec_shape_check():
    with pytest.raises(ConfigError):
        TrajectoryVec(np.zeros(5))
    U = TrajectoryVec(np.zeros((4, 2)))
    assert U.states.shape == (4, 2)
    with pytest.raises(ValueError):
        U.states[0, 0] = 1.0  # snapshots are frozen


def test_coarse_sweep_single_chunk(logistic_setup):
    system, _, _, coarse, u0 = logistic_setup
    grid1 = GridSpec.make(T=0.4, N=1, xi=10, h=0.01)
    guess = coarse_sweep(coarse_propagator(grid1, IMPLICIT_EULER), system,
                         grid1, u0)
    expected = propagate(coarse_propagator(grid1, IMPLICIT_EULER), system,
                         0.0, u0)
    assert np.array_equal(guess.states[1], expected)
    assert np.array_equal(guess.states[0], u0)


def test_coarse_sweep_constant_dynamics():
    system = make_linear(0.0)
    grid = GridSpec.make(T=4.0, N=4, xi=10, h=0.01)
    guess = coarse_sweep(coarse_propagator(grid, RK4), system, grid,
                         np.array([2.5]))
    assert np.all(guess.states == 2.5)


def test_coarse_sweep_matches_scalar_recurrence(logistic_setup):
    """Implicit Euler coarse sweep equals the hand-iterated recurrence."""
    system, _, _, _, u0 = logistic_setup
    grid = GridSpec.make(T=1.5, N=3, xi=10, h=0.05)
    coarse = coarse_propagator(grid, IMPLICIT_EULER)
    guess = coarse_sweep(coarse, system, grid, u0)
    # Backward-Euler update solves y = u + H y(1-y) per step, i.e. the
    # smaller root of H y^2 + (1-H) y - u = 0 continuous with y -> u.
    H = grid.xi * grid.h
    y = float(u0[0])
    states = [y]
    for _ in range(grid.N):
        for _ in range(grid.L):
            disc = (1.0 - H) ** 2 + 4.0 * H * y
            y = (-(1.0 - H) + np.sqrt(disc)) / (2.0 * H)
        states.append(y)
    assert np.allclose(guess.states[:, 0], states, rtol=1e-12)


def test_fine_reference_closed_form_logistic(logistic_setup):
    system, _, _, _, _ = logistic_setup
    grid = GridSpec.make(T=1.0, N=4, xi=10, h=1e-4)
    fine = fine_propagator(grid, IMPLICIT_EULER)
    u0 = np.array([0.2])
    ref = fine_serial_reference(fine, system, grid, u0)
    t = grid.interface_times
    exact = 0.2 * np.exp(t) / (1.0 + 0.2 * (np.exp(t) - 1.0))
    # first-order method, h = 1e-4: error around 1e-5 scale
    assert np.max(np.abs(ref.states[:, 0] - exact)) < 5e-5
    assert np.max(np.abs(ref.states[:, 0] - exact)) > 1e-7


def test_parareal_iterate_fixed_point(logistic_setup):
    system, grid, fine, coarse, u0 = logistic_setup
    ref = fine_serial_reference(fine, system, grid, u0)
    nxt, fine_values = parareal_iterate(ref, fine, coarse, system, grid)
    assert np.array_equal(nxt.states, ref.states)
    assert np.array_equal(np.stack(fine_values), ref.states[1:])


def test_parareal_iterate_k_exactness(lorenz_setup):
    system, grid, fine, coarse, u0 = lorenz_setup
    ref = fine_serial_reference(fine, system, grid, u0)
    U = coarse_sweep(coarse, system, grid, u0)
    for k in range(1, grid.N + 1):
        U, _ = parareal_iterate(U, fine, coarse, system, grid)
        err = np.linalg.norm(U.states[:k + 1] - ref.states[:k + 1], axis=-1)
        scale = 1.0 + np.linalg.norm(ref.states[:k + 1], axis=-1)
        assert np.max(err / scale) < 1e-12
    assert np.array_equal(U.states, ref.states)


def test_equal_solvers_converge_in_one_iteration(lorenz_setup):
    system, _, _, _, u0 = lorenz_setup
    for N in (1, 2, 4, 8):
        grid = GridSpec.make(T=2.0, N=N, xi=10, h=1e-3)
        fine = fine_propagator(grid, RK4)
        for crit in (StopCriterion("standard", 1e-12),
                     StopCriterion("psi", 1e-12)):
            report = parareal_solve(system, grid, fine, fine, crit, u0)
            assert report.K == 1
            ref = fine_serial_reference(fine, system, grid, u0)
            assert np.array_equal(report.solution.states, ref.states)


def test_solve_rerun_bit_identical(lorenz_setup):
    """Two solves sharing one criterion object run alike in every weight
    mode: the solve keeps its weight to itself."""
    system, grid, fine, coarse, u0 = lorenz_setup
    for weight in WEIGHT_MODES:
        crit = StopCriterion("psi", 1e-9, weight, lam=0.9)
        a = parareal_solve(system, grid, fine, coarse, crit, u0)
        b = parareal_solve(system, grid, fine, coarse, crit, u0)
        assert a.K == b.K
        assert a.residual_history == b.residual_history
        assert a.lipschitz_history == b.lipschitz_history
        assert np.array_equal(a.solution.states, b.solution.states)


def test_single_chunk_solves_in_one_iteration(logistic_setup):
    system, _, _, _, u0 = logistic_setup
    grid = GridSpec.make(T=0.5, N=1, xi=10, h=0.005)
    fine = fine_propagator(grid, IMPLICIT_EULER)
    coarse = coarse_propagator(grid, IMPLICIT_EULER)
    report = parareal_solve(system, grid, fine, coarse,
                            StopCriterion("standard", 1e-12), u0)
    ref = fine_serial_reference(fine, system, grid, u0)
    assert report.K == 1
    assert np.array_equal(report.solution.states, ref.states)


def test_solve_report_protocol(logistic_setup):
    system, grid, fine, coarse, u0 = logistic_setup
    crit = StopCriterion("standard", 1e-12)
    report = parareal_solve(system, grid, fine, coarse, crit, u0,
                            store_iterates=True)
    assert len(report.residual_history) == report.K
    assert report.residual_history[-1] < 1e-12
    assert len(report.iterates) == report.K + 1
    assert all(np.array_equal(it.states[0], u0) for it in report.iterates)
    # residuals decrease once contraction kicks in
    assert report.residual_history[-1] < report.residual_history[0]


def test_solve_cap_reports_converged(lorenz_setup):
    """A run hitting the iteration cap holds the fine solution exactly."""
    system, grid, fine, coarse, u0 = lorenz_setup
    crit = StopCriterion("psi", 1e-300, "unit")  # can never fire
    report = parareal_solve(system, grid, fine, coarse, crit, u0)
    assert report.K == grid.N
    ref = fine_serial_reference(fine, system, grid, u0)
    assert np.array_equal(report.solution.states, ref.states)


def test_solve_lipschitz_history_non_decreasing(lorenz_setup):
    system, grid, fine, coarse, u0 = lorenz_setup
    crit = StopCriterion("psi", 1e-12, "lipschitz")
    report = parareal_solve(system, grid, fine, coarse, crit, u0)
    hist = report.lipschitz_history
    assert len(hist) == report.K
    assert hist[0] == 1.0
    assert all(a <= b for a, b in zip(hist, hist[1:]))
    assert all(v >= 1.0 for v in hist)


def test_solve_lyapunov_mode_requires_lambda():
    for check in ("psi", "standard"):
        with pytest.raises(ConfigError, match="^lam: "):
            StopCriterion(check, 1e-9, "lyapunov", lam=None)


def test_idempotence_on_solution(lorenz_setup):
    system, grid, fine, coarse, u0 = lorenz_setup
    crit = StopCriterion("standard", 1e-12)
    report = parareal_solve(system, grid, fine, coarse, crit, u0)
    again, _ = parareal_iterate(report.solution, fine, coarse, system, grid)
    rel = np.linalg.norm(again.states - report.solution.states) / (
        1.0 + np.linalg.norm(report.solution.states))
    assert rel < 1e-12


_L96 = make_lorenz96(D=8)
SKIP_CASES = {
    # eps never fires, so K = N and the locked prefix grows to N.
    "lorenz63": (make_lorenz63(), GridSpec.make(T=2.0, N=8, xi=10, h=1e-3),
                 RK4, StopCriterion("psi", 1e-300, "unit"),
                 np.array([1.0, 1.0, 1.0])),
    # Past t ~ 30 the walk stops changing in floating point, so rows
    # repeat outside the locked prefix too.
    "logistic": (make_logistic(), GridSpec.make(T=48.0, N=16, xi=10, h=0.01),
                 IMPLICIT_EULER, StopCriterion("standard", 1e-300),
                 np.array([0.5])),
    "lorenz96": (_L96, GridSpec.make(T=2.4, N=8, xi=10, h=1e-2), RK4,
                 StopCriterion("standard", 1e-300),
                 default_initial_state(_L96) + 0.5),
}


@pytest.mark.parametrize("case", list(SKIP_CASES))
def test_solve_skips_unchanged_chunks_bit_identically(case, monkeypatch):
    """Each stored iterate of a solve, which skips unchanged chunks, equals
    the memo-free iteration of the previous one bitwise, and
    ``RunReport.propagated`` counts the propagations that ran."""
    system, grid, tableau, crit, u0 = SKIP_CASES[case]
    fine = fine_propagator(grid, tableau)
    coarse = coarse_propagator(grid, tableau)
    batch_rows, single_calls = [], 0

    def counting_propagate(prop, system, t0, u):
        nonlocal single_calls
        if u.ndim == 2:
            batch_rows.append(u.shape[0])
        else:
            single_calls += 1
        return propagate(prop, system, t0, u)

    def counting_float_chunk(prop, system, t0, u):
        nonlocal single_calls
        out = _float_chunk(prop, system, t0, u)
        single_calls += out is not None
        return out

    monkeypatch.setattr(engine, "propagate", counting_propagate)
    monkeypatch.setattr(engine, "_float_chunk", counting_float_chunk)
    report = parareal_solve(system, grid, fine, coarse, crit, u0,
                            store_iterates=True)
    monkeypatch.undo()
    assert len(report.propagated) == report.K >= 8
    # The fine sweeps run as batches and the correction sweeps one state at a
    # time, on the float step where it applies and else by propagate; the
    # coarse guess is a walk, which calls neither through the engine.
    assert sum(batch_rows) == sum(f for f, _ in report.propagated)
    assert single_calls == sum(c for _, c in report.propagated)
    for k, (prev, curr) in enumerate(zip(report.iterates,
                                         report.iterates[1:]), start=1):
        nxt, _ = parareal_iterate(prev, fine, coarse, system, grid)
        assert np.array_equal(nxt.states.view(np.uint64),
                              curr.states.view(np.uint64))
        fine_rows, coarse_chunks = report.propagated[k - 1]
        assert fine_rows <= grid.N - (k - 1)
        assert coarse_chunks <= grid.N - k
    if case == "logistic":
        # Skips beyond the k - 1 locked rows: the repeating tail.
        assert any(fine_rows < grid.N - (k - 1)
                   for k, (fine_rows, _) in enumerate(report.propagated, start=1))


@pytest.mark.skipif(kernel_path() != "c",
                    reason="compiled kernel not available")
def test_single_lorenz63_states_take_the_kernel_and_the_correction_sweep_the_float_step(
        lorenz_setup, monkeypatch):
    """With the compiled kernel, ``propagate`` runs a single Lorenz-63 state
    on it, while the correction sweep takes the float step for every chunk
    it propagates; both give the bits of the numpy step."""
    system, grid, fine, coarse, u0 = lorenz_setup
    numpy_only = dataclasses.replace(system, scalar_rhs=None, kernel=None)
    float_step, calls = integrators._float_step_explicit, []

    def counted(*args):
        calls.append(1)
        return float_step(*args)

    monkeypatch.setattr(integrators, "_float_step_explicit", counted)
    single = propagate(coarse, system, 0.0, u0)
    assert not calls
    assert np.array_equal(single, propagate(coarse, numpy_only, 0.0, u0))
    crit = StopCriterion("psi", 1e-300, "unit")
    report = parareal_solve(system, grid, fine, coarse, crit, u0)
    assert len(calls) == coarse.steps_per_call * sum(
        c for _, c in report.propagated) > 0
    reference = parareal_solve(numpy_only, grid, fine, coarse, crit, u0)
    assert np.array_equal(report.solution.states.view(np.uint64),
                          reference.solution.states.view(np.uint64))


def test_fine_sweep_reuses_only_bitwise_equal_rows():
    """Rows are reused only when bitwise equal: -0.0 after 0.0 is a change,
    and F(-0.0) = -0.0 differs from F(0.0) = 0.0 in its bits."""
    system = make_linear(1.0)
    grid = GridSpec.make(T=4.0, N=4, xi=10, h=0.01)
    fine = fine_propagator(grid, RK4)
    prev_states = np.array([[1.0], [0.0], [3.0], [0.5], [9.0]])
    states = np.array([[1.0], [-0.0], [2.0], [0.5], [7.0]])
    prev_values = engine._fine_sweep_batched(fine, system, grid, prev_states)
    reused = engine._fine_sweep_batched(fine, system, grid, states,
                                        prev_states, prev_values)
    fresh = engine._fine_sweep_batched(fine, system, grid, states)
    assert np.signbit(fresh[1, 0])
    assert np.array_equal(reused.view(np.uint64), fresh.view(np.uint64))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fine_sweep_blowup_names_original_chunk():
    """A blow-up among the changed rows reports the chunk's own index and
    step, as the sweep over every row does."""
    system = make_linear(50.0)
    grid = GridSpec.make(T=60.0, N=6, xi=10, h=0.1)
    fine = fine_propagator(grid, RK4)
    states = np.ones((grid.N + 1, 1))
    states[4] = 1e200
    prev_states = states.copy()
    prev_states[[2, 4]] = 2.0  # rows 2 and 4 changed; chunk 5 blows up
    prev_values = np.zeros((grid.N, 1))
    indices = []
    for prev in ((), (prev_states, prev_values)):
        with pytest.raises(BlowUpError) as err:
            engine._fine_sweep_batched(fine, system, grid, states, *prev)
        indices.append((err.value.step_index, err.value.chunk_index))
    assert indices[0] == indices[1]
    assert indices[0][1] == 5


def test_newton_failure_names_the_chunk_in_both_sweeps():
    """A Newton failure in the fine sweep (its changed rows or every row)
    and in the correction sweep names the chunk and the step within it."""
    system = make_logistic()
    grid = GridSpec.make(T=10.8, N=4, xi=1, h=0.9)  # three steps per chunk
    prop = fine_propagator(grid, IMPLICIT_EULER)
    # From -0.001 the second implicit Euler step at h = 0.9 has no solution.
    states = np.full((grid.N + 1, 1), 0.5)
    states[2] = -0.001
    prev_states = states.copy()
    prev_states[[1, 2]] = 0.25  # rows 1 and 2 changed; chunk 3 fails
    fine_values = np.full((grid.N, 1), 0.5)
    fine_values[0] = -0.001  # the corrected input of chunk 2
    coarse_prev = fine_values.copy()
    coarse_prev[0] = propagate(prop, system, 0.0, states[0])
    runs = [lambda: engine._fine_sweep_batched(prop, system, grid, states),
            lambda: engine._fine_sweep_batched(prop, system, grid, states,
                                               prev_states, fine_values),
            lambda: engine._correction_sweep(prop, system, grid, states[0],
                                             fine_values, coarse_prev)]
    for run, chunk in zip(runs, (3, 3, 2)):
        with pytest.raises(StepFailureError) as err:
            run()
        assert (err.value.step_index, err.value.chunk_index) == (1, chunk)
        assert f"failed in chunk {chunk}: " in str(err.value)
        assert err.value.residual > 0


def test_solve_calls_sweeps_through_module_attributes(lorenz_setup, monkeypatch):
    """Benchmark tracing swaps these module attributes and reads the full
    iterate passed to the fine sweep and the correction sweep's 2-tuple."""
    system, grid, fine, coarse, u0 = lorenz_setup
    fine_args, correction_results = [], []
    real_fine, real_correction = engine._fine_sweep_batched, engine._correction_sweep

    def recording_fine(*args, **kwargs):
        fine_args.append(args)
        return real_fine(*args, **kwargs)

    def recording_correction(*args, **kwargs):
        result = real_correction(*args, **kwargs)
        correction_results.append(result)
        return result

    monkeypatch.setattr(engine, "_fine_sweep_batched", recording_fine)
    monkeypatch.setattr(engine, "_correction_sweep", recording_correction)
    report = parareal_solve(system, grid, fine, coarse,
                            StopCriterion("standard", 1e-12), u0)
    assert len(fine_args) == len(correction_results) == report.K
    for args in fine_args:
        assert len(args) >= 4 and args[3].shape == (grid.N + 1, system.dim)
    for result in correction_results:
        assert isinstance(result, tuple) and len(result) == 2
        assert result[0].shape == (grid.N + 1, system.dim)


def test_blowup_carries_chunk_index():
    system = make_linear(50.0)
    grid = GridSpec.make(T=40.0, N=4, xi=10, h=0.1)
    fine = fine_propagator(grid, RK4)
    coarse = coarse_propagator(grid, RK4)
    with pytest.raises(BlowUpError) as err:
        parareal_solve(system, grid, fine, coarse,
                       StopCriterion("standard", 1e-9), np.array([1.0]))
    assert err.value.chunk_index is not None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowup_indices_same_without_float_kernels():
    """Blow-ups on the compiled serial path name the same step and chunk as
    the numpy path: in the solve (its fine sweep) and in the serial
    reference."""
    system = make_linear(50.0)
    array_only = dataclasses.replace(system, scalar_rhs=None, kernel=None)
    grid = GridSpec.make(T=40.0, N=4, xi=10, h=0.1)
    fine = fine_propagator(grid, RK4)
    coarse = coarse_propagator(grid, RK4)
    runs = (lambda s: parareal_solve(s, grid, fine, coarse,
                                     StopCriterion("standard", 1e-9),
                                     np.array([1.0])),
            lambda s: fine_serial_reference(fine, s, grid, np.array([1.0])))
    for run in runs:
        indices = []
        for s in (system, array_only):
            with pytest.raises(BlowUpError) as err:
                run(s)
            indices.append((err.value.step_index, err.value.chunk_index))
        assert indices[0] == indices[1]
        assert None not in indices[0]


def test_initial_state_dimension_check(lorenz_setup):
    system, grid, fine, coarse, _ = lorenz_setup
    with pytest.raises(ConfigError):
        parareal_solve(system, grid, fine, coarse,
                       StopCriterion("standard", 1e-9), np.array([1.0, 2.0]))
