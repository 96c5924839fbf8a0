import dataclasses

import numpy as np
import pytest

from paratime.criteria import (StopCriterion, base_weight, check,
                               equivalence_constants, proximity,
                               update_lipschitz, weighted_norm)
from paratime.engine import TrajectoryVec, fine_serial_reference
from paratime.errors import ConfigError
from paratime.integrators import (RK4, GridSpec, Propagator, fine_propagator,
                                  propagate, stability_function)
from paratime.systems import make_linear


def _traj(states):
    return TrajectoryVec(np.asarray(states, dtype=float))


def test_proximity_hand_example():
    # N=2, w=2, jump norms (1, 4): psi = (1/2)(1/2*1 + 1/4*4) = 0.75
    U = _traj([[0.0], [1.0], [4.0]])
    fine_values = np.array([[0.0], [0.0]])
    assert proximity(U, fine_values, 2.0) == pytest.approx(0.75)


def test_proximity_unit_weight_is_mean_jump():
    rng = np.random.default_rng(0)
    states = rng.normal(size=(9, 4))
    fine_values = rng.normal(size=(8, 4))
    got = proximity(_traj(states), fine_values, 1.0)
    expected = np.mean([np.linalg.norm(states[n] - fine_values[n - 1])
                        for n in range(1, 9)])
    assert got == pytest.approx(expected, rel=1e-13)


def test_proximity_zero_at_fixed_point():
    lin = make_linear(-0.4)
    grid = GridSpec.make(T=2.0, N=4, xi=10, h=0.005)
    fine = fine_propagator(grid, RK4)
    ref = fine_serial_reference(fine, lin, grid, np.array([1.0]))
    fine_values = propagate(fine, lin, grid.interface_times[:-1],
                            ref.states[:-1])
    assert proximity(ref, fine_values, 1.5) == 0.0


def test_proximity_shape_mismatch():
    U = _traj([[0.0], [1.0], [4.0]])
    with pytest.raises(ConfigError):
        proximity(U, np.zeros((3, 1)), 1.0)


def test_proximity_homogeneous_in_jumps():
    rng = np.random.default_rng(1)
    states = rng.normal(size=(6, 3))
    fine_values = rng.normal(size=(5, 3))
    base = proximity(_traj(states), fine_values, 1.7)
    for alpha in (0.0, 0.25, 3.0):
        # fine values chosen so every jump is scaled by alpha exactly
        scaled = states[1:] - alpha * (states[1:] - fine_values)
        got = proximity(_traj(states), scaled, 1.7)
        assert got == pytest.approx(alpha * base, rel=1e-12, abs=1e-15)


def test_proximity_decreases_in_w():
    rng = np.random.default_rng(2)
    states = rng.normal(size=(6, 3))
    fine_values = rng.normal(size=(5, 3))
    U = _traj(states)
    values = [proximity(U, fine_values, w) for w in (1.0, 1.5, 2.0, 4.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_update_lipschitz_linear_map_exact():
    # For a linear chunk map F(u) = 2u the secant ratio is exactly 2.
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 2))
    b = rng.normal(size=(5, 2))
    est = update_lipschitz(1.0, _traj(a), _traj(b), 2.0 * a[:-1], 2.0 * b[:-1])
    assert est == pytest.approx(2.0, rel=1e-12)


def test_update_lipschitz_skips_degenerate_pairs():
    a = np.ones((4, 2))
    est = update_lipschitz(1.4, _traj(a), _traj(a.copy()),
                           np.ones((3, 2)), np.ones((3, 2)))
    assert est == 1.4


def test_update_lipschitz_floor_and_monotone():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 2))
    b = rng.normal(size=(5, 2))
    # A strongly contracting map would push the estimate below 1; the floor
    # keeps the weight conservative.
    est = update_lipschitz(1.0, _traj(a), _traj(b), 0.01 * a[:-1], 0.01 * b[:-1])
    assert est == 1.0
    est2 = update_lipschitz(7.0, _traj(a), _traj(b), 2 * a[:-1], 2 * b[:-1])
    assert est2 == 7.0


def test_base_weight_modes():
    assert base_weight("unit", None, 0.5) == 1.0
    assert base_weight("lyapunov", 0.9, 1.0) == pytest.approx(np.exp(0.9))
    assert base_weight("lyapunov", 0.0, 2.0) == 1.0
    assert base_weight("lipschitz", None, 1.0, 3.7) == 3.7
    assert base_weight("lipschitz", None, 1.0, 0.2) == 1.0
    with pytest.raises(ConfigError):
        base_weight("lyapunov", None, 1.0)


def test_weighted_norm_basics():
    ref = _traj(np.zeros((4, 2)))
    states = np.zeros((4, 2))
    states[2] = [3.0, 0.0]
    U = _traj(states)
    assert weighted_norm(U, ref, w=1.0, p=2.0) == pytest.approx(3.0)
    assert weighted_norm(ref, ref, w=2.0, p=2.0) == 0.0
    # brute-force cross-check on random trajectories
    rng = np.random.default_rng(5)
    for p in (1.0, 2.0, 3.0):
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(7, 3))
        w = 1.8
        expected = sum(w ** (-n) * np.linalg.norm(a[n] - b[n], ord=p) ** p
                       for n in range(1, 7)) ** (1.0 / p)
        got = weighted_norm(_traj(a), _traj(b), w=w, p=p)
        assert got == pytest.approx(expected, rel=1e-13)


def test_equivalence_constants_cases():
    eq = equivalence_constants(2.0, 2.0, 4)  # theta = 1
    assert eq.c_lower == pytest.approx(0.5)
    assert eq.C_upper == pytest.approx(16.0)
    eq = equivalence_constants(1.0, 2.0, 3)  # theta = 0.5
    assert eq.c_lower == pytest.approx(2.0 / 3.0)
    assert eq.C_upper == pytest.approx(5.25)
    # unstable side grows geometrically with N
    big = [equivalence_constants(2.0, 1.0, N).C_upper for N in (4, 8, 16)]
    assert big[1] / big[0] > 10 and big[2] / big[1] > 100


def test_stop_criterion_is_frozen_and_takes_config_names():
    crit = StopCriterion(check="psi", weight="lipschitz")
    with pytest.raises(dataclasses.FrozenInstanceError):
        crit.eps = 1.0
    for bad, field in (({"check": "proximity"}, "check"),
                       ({"weight": "lipschitz_dynamic"}, "weight"),
                       ({"eps": 0.0}, "eps"), ({"weight": "lyapunov"}, "lam")):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            StopCriterion(**bad)


def test_check_standard_and_proximity():
    crit = StopCriterion(check="standard", eps=1e-10)
    rng = np.random.default_rng(6)
    states = rng.normal(size=(5, 2))
    U = _traj(states)
    fired, value = check(crit, U, _traj(states.copy()), None, 1.0)
    assert fired and value == 0.0

    crit = StopCriterion(check="psi", eps=1e-10)
    fine_values = states[1:].copy()
    fired, value = check(crit, U, U, fine_values, 1.0)
    assert fired and value == 0.0
    fired, value = check(crit, U, U, fine_values + 1.0, 1.0)
    assert not fired and value > 0.1


def test_standard_check_skips_tiny_chunks():
    crit = StopCriterion(check="standard", eps=1e-10)
    a = np.array([[1.0], [0.0], [2.0]])
    b = np.array([[1.0], [1e-310], [2.0]])
    fired, value = check(crit, _traj(a), _traj(b), None, 1.0)
    assert fired and value == 0.0


def _sandwich_case(a, w, N, n_samples, seed):
    """Norm-equivalence sandwich on the scalar linear problem at p=1."""
    lin = make_linear(a)
    grid = GridSpec.make(T=N * 0.4, N=N, xi=10, h=0.004)
    fine = fine_propagator(grid, RK4)
    rho = stability_function(RK4, a * grid.h) ** (grid.L * grid.xi)
    Lambda_F = abs(rho)
    u0 = np.array([1.0])
    ref = fine_serial_reference(fine, lin, grid, u0)
    eq = equivalence_constants(Lambda_F, w, N)
    rng = np.random.default_rng(seed)
    t_starts = grid.interface_times[:-1]
    for _ in range(n_samples):
        states = ref.states + np.concatenate(
            [[[0.0]], rng.normal(size=(N, 1)) * rng.uniform(1e-3, 10.0)])
        U = _traj(states)
        fine_values = propagate(fine, lin, t_starts, states[:-1])
        psi = proximity(U, fine_values, w)
        dist = weighted_norm(U, ref, w=w, p=1.0)
        assert eq.c_lower * psi <= dist * (1 + 1e-9)
        assert dist <= eq.C_upper * psi * (1 + 1e-9)


def test_norm_equivalence_sandwich_stable_and_unstable():
    _sandwich_case(a=-1.0, w=1.0, N=6, n_samples=100, seed=7)
    _sandwich_case(a=0.8, w=1.2, N=6, n_samples=100, seed=8)
    lin_lambda = stability_function(RK4, 0.8 * 0.004) ** 100
    _sandwich_case(a=0.8, w=abs(lin_lambda), N=5, n_samples=100, seed=9)
