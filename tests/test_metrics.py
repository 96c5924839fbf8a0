import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from paratime.engine import TrajectoryVec
from paratime.errors import ConfigError
from paratime.metrics import (lyapunov_estimate, serial_work, speedup_model,
                              trajectory_w1, wasserstein1)
from paratime.systems import make_linear, make_logistic, make_lorenz63


def transport_lp_oracle(a, b):
    """Optimal-transport cost between equal-weight empirical measures."""
    m, n = len(a), len(b)
    cost = np.abs(np.subtract.outer(a, b)).ravel()
    A_eq = np.zeros((m + n, m * n))
    for i in range(m):
        A_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        A_eq[m + j, j::n] = 1.0
    b_eq = np.concatenate([np.full(m, 1.0 / m), np.full(n, 1.0 / n)])
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def test_wasserstein_point_masses():
    assert wasserstein1([0.0], [1.0]) == 1.0
    assert wasserstein1([0, 1, 2], [1, 2, 3]) == pytest.approx(1.0)
    assert wasserstein1([3.0, 1.0], [1.0, 3.0]) == 0.0


def test_wasserstein_identical_samples():
    rng = np.random.default_rng(0)
    a = rng.normal(size=37)
    assert wasserstein1(a, a.copy()) == 0.0


def test_wasserstein_empty_rejected():
    with pytest.raises(ConfigError):
        wasserstein1([], [1.0])


def test_wasserstein_matches_lp_oracle_small():
    rng = np.random.default_rng(1)
    for _ in range(25):
        m = int(rng.integers(2, 30))
        a = rng.normal(size=m) * rng.uniform(0.5, 2.0)
        b = rng.normal(size=m) + rng.uniform(-1.0, 1.0)
        assert wasserstein1(a, b) == pytest.approx(transport_lp_oracle(a, b),
                                                   abs=1e-10)


def test_wasserstein_unequal_sizes_quantile_form():
    # {0} vs {0, 1}: quantile gap is 1 on half the mass
    assert wasserstein1([0.0], [0.0, 1.0]) == pytest.approx(0.5)
    rng = np.random.default_rng(2)
    from scipy.stats import wasserstein_distance
    for _ in range(50):
        a = rng.normal(size=int(rng.integers(1, 25)))
        b = rng.normal(size=int(rng.integers(1, 25)))
        assert wasserstein1(a, b) == pytest.approx(wasserstein_distance(a, b),
                                                   abs=1e-12)


def test_wasserstein_metric_properties():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        c = rng.normal(size=12)
        dab = wasserstein1(a, b)
        dba = wasserstein1(b, a)
        assert dab == pytest.approx(dba, abs=1e-14)
        assert dab >= 0.0
        assert dab <= wasserstein1(a, c) + wasserstein1(c, b) + 1e-12
    a = rng.normal(size=12)
    assert wasserstein1(a, np.sort(a)) == 0.0


def test_wasserstein_translation_covariance():
    rng = np.random.default_rng(4)
    a = rng.normal(size=20)
    b = rng.normal(size=20)
    base = wasserstein1(a, b)
    for t in (-2.0, 0.5, 3.0):
        shifted = wasserstein1(a, b + t)
        assert shifted <= base + abs(t) + 1e-12
    # disjoint supports: exact equality
    a = rng.uniform(0, 1, size=15)
    b = a + 10.0
    assert wasserstein1(a, b) == pytest.approx(10.0)


def test_trajectory_w1_per_coordinate_mean():
    rng = np.random.default_rng(5)
    states = rng.normal(size=(9, 3))
    ref = rng.normal(size=(9, 3))
    U, R = TrajectoryVec(states), TrajectoryVec(ref)
    assert trajectory_w1(U, U) == 0.0
    per = trajectory_w1(U, R)
    expected = np.mean([wasserstein1(states[1:, i], ref[1:, i])
                        for i in range(3)])
    assert per == pytest.approx(expected)


def test_trajectory_w1_scalar_system_reduces():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(7, 1))
    b = rng.normal(size=(7, 1))
    got = trajectory_w1(TrajectoryVec(a), TrajectoryVec(b))
    assert got == pytest.approx(wasserstein1(a[1:, 0], b[1:, 0]))


def test_speedup_model_values():
    assert f"{speedup_model(4, 1, 100):.2f}" == "3.85"
    assert speedup_model(128, 2, 100) == pytest.approx(28.07, abs=5e-3)
    # free coarse solver limit -> N/K
    assert speedup_model(64, 4, 10**9) == pytest.approx(16.0, rel=1e-6)
    with pytest.raises(ConfigError):
        speedup_model(0, 1, 10)


def test_speedup_model_monotonicity():
    S = [speedup_model(32, K, 50) for K in range(1, 8)]
    assert all(a > b for a, b in zip(S, S[1:]))
    S = [speedup_model(32, 2, xi) for xi in (2, 8, 32, 128, 512)]
    assert all(a < b for a, b in zip(S, S[1:]))
    assert serial_work(3, 0.25) == pytest.approx(0.75)


def test_lyapunov_linear_exact():
    lin = make_linear(0.37)
    lam = lyapunov_estimate(lin, np.array([1.0]), spinup=0.0, horizon=50.0,
                            renorm_interval=1.0, h=0.01)
    assert abs(lam - 0.37) < 1e-6


def test_lyapunov_logistic_negative():
    sys1 = make_logistic()
    lam = lyapunov_estimate(sys1, np.array([0.5]), spinup=5.0, horizon=50.0,
                            renorm_interval=1.0, h=0.01)
    assert lam < -0.5  # attracting equilibrium with rate -1


def test_lyapunov_lorenz_band_and_consistency():
    """Tangent-growth estimate lands on the known exponent and is stable
    under horizon doubling and renormalization-interval halving."""
    sys3 = make_lorenz63()
    u0 = np.array([1.0, 1.0, 1.0])
    lam = lyapunov_estimate(sys3, u0, spinup=20.0, horizon=200.0,
                            renorm_interval=1.0, h=5e-3)
    lam2 = lyapunov_estimate(sys3, u0, spinup=20.0, horizon=400.0,
                             renorm_interval=1.0, h=5e-3)
    assert 0.85 <= lam <= 0.95
    assert 0.85 <= lam2 <= 0.95
    assert abs(lam2 - lam) / lam2 < 0.02
    lam3 = lyapunov_estimate(sys3, u0, spinup=20.0, horizon=200.0,
                             renorm_interval=0.5, h=5e-3)
    assert abs(lam3 - lam) / lam < 0.02


def test_lyapunov_rejects_bad_args():
    lin = make_linear(1.0)
    with pytest.raises(ConfigError):
        lyapunov_estimate(lin, np.array([1.0]), 0.0, -1.0, 1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("spinup, horizon, renorm, h, name", [
    (-5.0, 1.0, 1.0, 1e-3, "spinup"),
    (NAN, 1.0, 1.0, 1e-3, "spinup"),
    (INF, 1.0, 1.0, 1e-3, "spinup"),
    (0.0, NAN, 1.0, 0.1, "horizon"),
    (0.0, INF, 1.0, 0.1, "horizon"),
    (0.0, 1.0, NAN, 0.1, "renorm_interval"),
    (0.0, 1.0, 1.0, NAN, "h"),
    (0.0, 1.0, 1.0, 0.1, "u0"),
    (1.0, 1.0, 1.0, 0.1, "u0")])
def test_lyapunov_names_a_bad_spinup_or_non_finite_arg(spinup, horizon, renorm,
                                                       h, name):
    # The "u0" rows pass a (2,) state, without and with a spin-up, and must
    # raise the same error; the others pass a good state.
    if name == "u0":
        u0, match = [1.0, 2.0], r"^initial state has shape \(2,\)"
    else:
        u0, match = [1.0], f"{name}: "
    with pytest.raises(ConfigError, match=match):
        lyapunov_estimate(make_linear(1.0), np.array(u0), spinup, horizon,
                          renorm, h)


@pytest.mark.parametrize("system", [make_lorenz63(), make_logistic()],
                         ids=["lorenz63", "logistic"])
def test_lyapunov_spin_up_bitwise_equal_on_the_array_step(system):
    """The spin-up walk gives the same bits as on the array-only system (no
    float step, no compiled kernel), and so does the whole estimate."""
    array_only = dataclasses.replace(system, scalar_rhs=None, kernel=None)
    u0 = np.array([1.0, 1.0, 1.0][:system.dim])
    lams = [lyapunov_estimate(s, u0, spinup=5.0, horizon=2.0,
                              renorm_interval=1.0, h=1e-2)
            for s in (system, array_only)]
    assert lams[0] == lams[1]
