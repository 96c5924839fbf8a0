import dataclasses

import numpy as np
import pytest

from paratime.errors import ConfigError
from paratime.systems import (OdeSystem, build_system, default_initial_state,
                              make_linear, make_logistic, make_lorenz63,
                              make_lorenz96)


def central_difference_jacobian(system, u, delta=1e-6):
    d = u.size
    J = np.empty((d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = delta
        J[:, k] = (system.rhs(0.0, u + e) - system.rhs(0.0, u - e)) / (2 * delta)
    return J


ALL_SYSTEMS = [make_logistic(), make_lorenz63(), make_lorenz96(),
               make_linear(-0.3)]


def test_logistic_values():
    sys1 = make_logistic()
    assert sys1.dim == 1
    assert sys1.rhs(0.0, np.array([0.5]))[0] == pytest.approx(0.25)
    assert sys1.rhs(0.0, np.array([0.0]))[0] == 0.0
    assert sys1.rhs(0.0, np.array([1.0]))[0] == 0.0
    assert sys1.jac(0.0, np.array([0.5]))[0, 0] == pytest.approx(0.0)


def test_lorenz63_values():
    sys3 = make_lorenz63()
    assert sys3.dim == 3
    out = sys3.rhs(0.0, np.array([1.0, 1.0, 1.0]))
    assert np.allclose(out, [0.0, 26.0, 1.0 - 8.0 / 3.0])
    J = sys3.jac(0.0, np.zeros(3))
    expected = np.array([[-10.0, 10.0, 0.0],
                         [28.0, -1.0, 0.0],
                         [0.0, 0.0, -8.0 / 3.0]])
    assert np.allclose(J, expected)


def test_lorenz96_rest_state_is_equilibrium():
    s96 = make_lorenz96()
    rest = np.full(40, 8.0)
    assert np.all(s96.rhs(0.0, rest) == 0.0)


def test_lorenz96_jacobian_structure():
    s96 = make_lorenz96(D=12, F=8.0)
    rng = np.random.default_rng(5)
    u = rng.normal(size=12) * 3
    J = s96.jac(0.0, u)
    D = 12
    for i in range(D):
        nonzero = {j for j in range(D) if J[i, j] != 0.0}
        expected = {(i - 2) % D, (i - 1) % D, (i + 1) % D, i}
        assert nonzero <= expected
        assert J[i, i] != 0.0


@pytest.mark.parametrize("D,shape", [(40, (40,)), (40, (64, 40)), (5, (3, 5))])
def test_lorenz96_rhs_matches_component_loop(D, shape):
    """The vectorized right-hand side is bitwise the textbook formula with
    cyclic indices, on single states and batches."""
    F = 8.0
    s96 = make_lorenz96(D=D, F=F)
    u = np.random.default_rng(D).normal(size=shape) * 4
    expected = np.empty(shape)
    for row, x in zip(expected.reshape(-1, D), u.reshape(-1, D)):
        for i in range(D):
            row[i] = (x[(i + 1) % D] - x[(i - 2) % D]) * x[(i - 1) % D] - x[i] + F
    assert np.array_equal(s96.rhs(0.0, u), expected)


def test_lorenz96_dimension_precondition():
    with pytest.raises(ConfigError):
        make_lorenz96(D=3)


def test_lorenz96_rotation_equivariance():
    s96 = make_lorenz96(D=20, F=8.0)
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.normal(size=20) * 5
        shift = int(rng.integers(1, 20))
        lhs = np.roll(s96.rhs(0.0, u), shift)
        rhs = s96.rhs(0.0, np.roll(u, shift))
        assert np.allclose(lhs, rhs, atol=1e-14)


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=lambda s: s.name)
def test_jacobian_matches_finite_differences(system):
    """Analytic Jacobians agree with central differences at random states."""
    rng = np.random.default_rng(17)
    for _ in range(100):
        u = rng.normal(size=system.dim) * 8.0
        J = system.jac(0.0, u)
        J_fd = central_difference_jacobian(system, u)
        scale = max(1.0, np.linalg.norm(J))
        assert np.linalg.norm(J - J_fd) / scale < 1e-4


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=lambda s: s.name)
def test_rhs_batched_matches_single(system):
    rng = np.random.default_rng(23)
    U = rng.normal(size=(6, system.dim)) * 4.0
    batched = system.rhs(0.0, U)
    single = np.stack([system.rhs(0.0, U[i]) for i in range(6)])
    assert np.array_equal(batched, single)
    batched_j = system.jac(0.0, U)
    single_j = np.stack([system.jac(0.0, U[i]) for i in range(6)])
    assert np.array_equal(batched_j, single_j)


def test_rhs_outputs_finite():
    rng = np.random.default_rng(3)
    for system in ALL_SYSTEMS:
        u = rng.normal(size=(50, system.dim)) * 20.0
        assert np.all(np.isfinite(system.rhs(0.0, u)))
        assert np.all(np.isfinite(system.jac(0.0, u)))


def test_build_system_registry():
    sys3 = build_system("lorenz63", {"rho": 20.0})
    assert sys3.params["rho"] == 20.0
    with pytest.raises(ConfigError):
        build_system("heat_equation")
    with pytest.raises(ConfigError):
        build_system("lorenz63", {"bogus": 1.0})


def test_default_initial_states():
    assert default_initial_state(make_logistic()).shape == (1,)
    u96 = default_initial_state(make_lorenz96())
    assert u96.shape == (40,)
    assert u96[0] == pytest.approx(8.01)
    assert np.all(u96[1:] == 8.0)


@pytest.mark.parametrize("system", ALL_SYSTEMS + [make_lorenz96(D=5)],
                         ids=lambda s: f"{s.name}-{s.dim}")
def test_jvp_matches_dense_jacobian_product(system):
    """The structured tangent product agrees with jac @ G to rounding."""
    rng = np.random.default_rng(29)
    d = system.dim
    for shape, m in (((), 1), ((), d), ((6,), 1), ((6,), d), ((2, 3), 2)):
        u = rng.normal(size=shape + (d,)) * 8.0
        G = rng.normal(size=shape + (d, m))
        dense = system.jac(0.0, u) @ G
        got = system.jvp(0.0, u, G)
        assert got.shape == dense.shape
        assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_lorenz96_jvp_promotes_narrow_blocks_to_float64(dtype):
    """float32 and integer tangent blocks give float64 slopes, as jac @ G
    does; a block shared by a batch of states broadcasts.  Differences of a
    float32 block's entries round in float32."""
    s96 = make_lorenz96()
    rng = np.random.default_rng(37)
    u = rng.normal(size=(3, 40)) * 8.0
    rtol = np.finfo(dtype).eps if dtype == np.float32 else 1e-13
    for G in (np.eye(40, dtype=dtype),
              (rng.normal(size=(3, 40, 5)) * 4.0).astype(dtype)):
        dense = s96.jac(0.0, u) @ G
        got = s96.jvp(0.0, u, G)
        assert got.dtype == np.float64
        assert got.shape == dense.shape
        assert np.abs(got - dense).max() <= rtol * np.abs(dense).max()


def test_jvp_defaults_to_the_dense_product():
    """A system built without a jvp uses jac @ G, rebound on replace."""
    s63 = make_lorenz63()
    plain = OdeSystem(name="plain", dim=3, rhs=s63.rhs, jac=s63.jac)
    u = np.array([1.0, -2.0, 20.0])
    G = np.random.default_rng(31).normal(size=(3, 2))
    assert np.array_equal(plain.jvp(0.0, u, G), s63.jac(0.0, u) @ G)
    doubled = dataclasses.replace(plain, jac=lambda t, u: 2.0 * s63.jac(t, u))
    assert np.array_equal(doubled.jvp(0.0, u, G),
                          (2.0 * s63.jac(0.0, u)) @ G)
