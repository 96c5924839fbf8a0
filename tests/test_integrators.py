import dataclasses
import os
import shutil
import tempfile
import threading
from fractions import Fraction

import numpy as np
import pytest

from paratime import _kernel, integrators
from paratime.errors import BlowUpError, ConfigError, StepFailureError
from paratime.integrators import (EULER, HEUN, IMPLICIT_EULER, RK4, TABLEAUX,
                                  ButcherTableau, GridSpec, Propagator,
                                  _compiled_kernel, _float_kernel,
                                  coarse_propagator, fine_propagator,
                                  get_tableau, kernel_path, propagate,
                                  propagate_with_jacobian,
                                  propagate_with_tangent, rk_step,
                                  rk_step_with_tangent, stability_function)
from paratime.systems import (make_linear, make_logistic, make_lorenz63,
                              make_lorenz96)


def test_tableau_registry_and_consistency():
    for name in ("rk4", "implicit_euler", "euler", "heun"):
        tab = get_tableau(name)
        assert tab.b.sum() == pytest.approx(1.0)
        assert np.allclose(tab.A.sum(axis=1), tab.c)
    assert get_tableau("rk4").is_explicit
    assert not get_tableau("implicit_euler").is_explicit
    with pytest.raises(ConfigError):
        get_tableau("rk44")


def test_tableau_validation_rejects_bad_weights():
    with pytest.raises(ConfigError):
        ButcherTableau(name="bad", A=[[0.0]], b=[0.5], c=[0.0], order=1)
    with pytest.raises(ConfigError):
        ButcherTableau(name="bad", A=[[0.25]], b=[1.0], c=[0.0], order=1)


def test_multi_stage_implicit_tableau_is_rejected():
    with pytest.raises(ConfigError, match="'midpoint_implicit'.*one stage"):
        ButcherTableau(name="midpoint_implicit", A=[[0.25, 0.0], [0.5, 0.25]],
                       b=[0.5, 0.5], c=[0.25, 0.75], order=2)


def test_classical_dot_products():
    # b.c products used by the curvature-mismatch constant.
    assert RK4.b @ RK4.c == pytest.approx(0.5)
    assert IMPLICIT_EULER.b @ IMPLICIT_EULER.c == pytest.approx(1.0)


def test_rk4_single_step_accuracy():
    lin = make_linear(1.0)
    out = rk_step(RK4, lin, 0.0, np.array([1.0]), 0.1)
    assert abs(out[0] - np.exp(0.1)) < 1e-7


def test_implicit_euler_step_linear_decay():
    lin = make_linear(-1.0)
    out = rk_step(IMPLICIT_EULER, lin, 0.0, np.array([1.0]), 0.5)
    assert out[0] == pytest.approx(1.0 / 1.5, abs=1e-12)


def test_zero_step_is_identity():
    sys1 = make_logistic()
    u = np.array([0.5])
    assert rk_step(RK4, sys1, 0.0, u, 0.0)[0] == 0.5


def test_newton_failure_raises_step_error():
    # The implicit stage equation h y^2 + (1-h) y - u = 0 has no real root
    # for u = -1, h = 0.9, so the Newton iteration cannot converge.
    sys1 = make_logistic()
    with pytest.raises(StepFailureError) as err:
        rk_step(IMPLICIT_EULER, sys1, 0.0, np.array([-1.0]), 0.9)
    assert err.value.residual is not None and err.value.residual > 0


@pytest.mark.parametrize("tab,expected_order", [(EULER, 1), (HEUN, 2),
                                                (RK4, 4), (IMPLICIT_EULER, 1)])
def test_observed_convergence_order(tab, expected_order):
    """Error slope on u' = u over fixed T matches the stated order."""
    lin = make_linear(1.0)
    T = 1.0
    errors, hs = [], []
    for n_steps in (8, 16, 32, 64):
        h = T / n_steps
        prop = Propagator(tableau=tab, step=h, steps_per_call=n_steps)
        out = propagate(prop, lin, 0.0, np.array([1.0]))
        errors.append(abs(out[0] - np.e))
        hs.append(h)
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert abs(slope - expected_order) < 0.2


def test_stability_function_values():
    assert stability_function(IMPLICIT_EULER, -0.5) == pytest.approx(1 / 1.5)
    z = 0.3
    expected = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    assert stability_function(RK4, z) == pytest.approx(expected, rel=1e-14)


def test_propagate_linear_factorization():
    """On u' = a u a chunk equals R(a h)^steps times the input."""
    a = -0.8
    lin = make_linear(a)
    for tab in (RK4, IMPLICIT_EULER, HEUN):
        prop = Propagator(tableau=tab, step=0.05, steps_per_call=17)
        out = propagate(prop, lin, 0.0, np.array([3.0]))
        R = stability_function(tab, a * 0.05)
        assert out[0] == pytest.approx(3.0 * R**17, rel=1e-12)


def test_propagate_single_step_reduces_to_rk_step():
    sys3 = make_lorenz63()
    u = np.array([1.0, 2.0, 3.0])
    prop = Propagator(tableau=RK4, step=0.01, steps_per_call=1)
    assert np.array_equal(propagate(prop, sys3, 0.0, u),
                          rk_step(RK4, sys3, 0.0, u, 0.01))


def test_propagate_step_halving_oracle():
    """Chunk output converges at order h^4 toward a step-halved oracle."""
    sys3 = make_lorenz63()
    u = np.array([-5.6, -7.3, 22.0])
    coarse = Propagator(tableau=RK4, step=1e-4, steps_per_call=100)
    oracle = Propagator(tableau=RK4, step=1e-6, steps_per_call=10000)
    out = propagate(coarse, sys3, 0.0, u)
    ref = propagate(oracle, sys3, 0.0, u)
    assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-10


def test_blowup_reports_step_and_chunk():
    lin = make_linear(80.0)
    prop = Propagator(tableau=EULER, step=10.0, steps_per_call=150)
    U = np.array([[1.0], [2.0]])
    with pytest.raises(BlowUpError) as err:
        propagate(prop, lin, 0.0, U)
    assert err.value.step_index is not None


@pytest.mark.parametrize("tab", [RK4, IMPLICIT_EULER], ids=lambda t: t.name)
def test_jacobian_state_bit_identical_and_fd_match(tab):
    sys3 = make_lorenz63()
    u = np.array([-3.2, -5.1, 21.0])
    prop = Propagator(tableau=tab, step=1e-3, steps_per_call=40)
    out_j, J = propagate_with_jacobian(prop, sys3, 0.0, u)
    out = propagate(prop, sys3, 0.0, u)
    assert np.array_equal(out, out_j)

    delta = 1e-6
    J_fd = np.empty((3, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = delta
        J_fd[:, k] = (propagate(prop, sys3, 0.0, u + e)
                      - propagate(prop, sys3, 0.0, u - e)) / (2 * delta)
    assert np.linalg.norm(J - J_fd) / np.linalg.norm(J) < 1e-6


def test_jacobian_linear_problem_exact():
    a, h, n = -0.7, 0.05, 12
    lin = make_linear(a)
    prop = Propagator(tableau=RK4, step=h, steps_per_call=n)
    _, J = propagate_with_jacobian(prop, lin, 0.0, np.array([2.0]))
    assert J[0, 0] == pytest.approx(stability_function(RK4, a * h) ** n,
                                    rel=1e-13)


def test_jacobian_consistency_small_step():
    sys3 = make_lorenz63()
    u = np.array([-3.2, -5.1, 21.0])
    h = 1e-6
    prop = Propagator(tableau=RK4, step=h, steps_per_call=1)
    _, J = propagate_with_jacobian(prop, sys3, 0.0, u)
    assert np.linalg.norm(J - np.eye(3) - h * sys3.jac(0.0, u)) < 1e-9


@pytest.mark.parametrize("tab", [RK4, IMPLICIT_EULER], ids=lambda t: t.name)
def test_batched_propagation_matches_serial_bitwise(tab):
    """The data-parallel sweep and a per-chunk loop produce identical bits."""
    sys3 = make_lorenz63()
    rng = np.random.default_rng(1)
    U = rng.normal(size=(7, 3)) * 8 + np.array([0.0, 0.0, 20.0])
    prop = Propagator(tableau=tab, step=1e-3, steps_per_call=25)
    batched = propagate(prop, sys3, 0.0, U)
    serial = np.stack([propagate(prop, sys3, 0.0, U[i]) for i in range(7)])
    assert np.array_equal(batched, serial)


def test_tangent_vector_propagation_matches_jacobian_column():
    sys3 = make_lorenz63()
    u = np.array([-3.2, -5.1, 21.0])
    prop = Propagator(tableau=RK4, step=1e-3, steps_per_call=30)
    _, J = propagate_with_jacobian(prop, sys3, 0.0, u)
    v = np.array([[1.0], [0.0], [0.0]])
    _, vt = propagate_with_tangent(prop, sys3, 0.0, u, v)
    assert np.allclose(vt[:, 0], J[:, 0], rtol=1e-13, atol=0)


def test_grid_spec_resolution():
    grid = GridSpec.make(T=1.28, N=128, xi=100, h=1e-4)
    assert grid.L == 1
    assert grid.dT == pytest.approx(0.01)
    grid = GridSpec.make(T=12.8, N=8, xi=10, L=16)
    assert grid.h == pytest.approx(0.01)
    with pytest.raises(ConfigError):
        GridSpec.make(T=1.0, N=3, xi=100, h=1e-4)  # L not integer
    with pytest.raises(ConfigError):
        GridSpec.make(T=1.0, N=4, xi=100)  # neither h nor L
    for field, kwargs in (("N", dict(N=4.5, xi=10, h=0.01)),
                          ("xi", dict(N=4, xi=2.5, h=0.01)),
                          ("L", dict(N=4, xi=10, L=2.5)),
                          ("N", dict(N=float("nan"), xi=10, h=0.01))):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            GridSpec.make(T=1.0, **kwargs)


def test_grid_propagator_wiring():
    grid = GridSpec.make(T=8.0, N=4, xi=10, h=0.01)
    fine = fine_propagator(grid, RK4)
    coarse = coarse_propagator(grid, RK4)
    assert fine.step * fine.steps_per_call == pytest.approx(grid.dT)
    assert coarse.step * coarse.steps_per_call == pytest.approx(grid.dT)
    assert coarse.step == pytest.approx(grid.xi * grid.h)
    assert fine.steps_per_call == grid.L * grid.xi


def array_only(system):
    """The same system without float or compiled kernels: numpy only."""
    return dataclasses.replace(system, scalar_rhs=None, kernel=None)


# Systems with a batch of in-range states each; Lorenz-63 alone has a float
# step.
SINGLE_STATE_SYSTEMS = {
    "logistic": (make_logistic(), [[1e-3], [0.2], [0.7], [1.3]]),
    "linear": (make_linear(-0.8), [[3.0], [-1.5], [0.0], [1e-9]]),
    "lorenz63": (make_lorenz63(), [[1.0, 1.0, 1.0], [-5.6, -7.3, 22.0],
                                   [13.8, 13.0, 34.9]]),
}


@pytest.mark.parametrize("tab", list(TABLEAUX.values()), ids=list(TABLEAUX))
@pytest.mark.parametrize("name", list(SINGLE_STATE_SYSTEMS))
def test_single_state_matches_batch_row_bitwise(name, tab):
    """A (d,) state, on the float step for Lorenz-63 on an explicit tableau
    and on the compiled kernel where it covers the others, gives the same
    bits as the same row propagated in an (n, d) numpy batch."""
    system, rows = SINGLE_STATE_SYSTEMS[name]
    U = np.array(rows)
    prop = Propagator(tableau=tab, step=0.01, steps_per_call=60)
    on_float = name == "lorenz63" and tab.is_explicit
    assert (_float_kernel(prop, system, np.asarray(0.5), U[0])
            is not None) == on_float
    if kernel_path() == "c" and not on_float:
        assert ((_compiled_kernel(prop, system, U[0]) is not None)
                == (tab.is_explicit or system.dim == 1))
    batched = propagate(prop, system, 0.5, U)
    for i in range(U.shape[0]):
        assert np.array_equal(propagate(prop, system, 0.5, U[i]), batched[i])


def test_float_path_not_taken_for_batches_or_array_times():
    system = make_lorenz63()
    prop = Propagator(tableau=RK4, step=0.01, steps_per_call=3)
    u = np.array([1.0, 2.0, 3.0])
    assert _float_kernel(prop, system, np.asarray(0.0), u) is not None
    assert _float_kernel(prop, system, np.asarray(0.0), u[None]) is None
    assert _float_kernel(prop, system, np.zeros(1), u) is None
    assert _float_kernel(prop, array_only(system), np.asarray(0.0), u) is None


def test_blowup_step_index_same_with_and_without_the_kernel():
    lin = make_linear(80.0)
    prop = Propagator(tableau=EULER, step=10.0, steps_per_call=150)
    u = np.array([1.0])
    errors = []
    for system in (lin, array_only(lin)):
        with pytest.raises(BlowUpError) as err:
            propagate(prop, system, 0.0, u)
        errors.append((err.value.step_index, err.value.chunk_index))
    assert errors[0] == errors[1]
    assert errors[0][0] is not None


def test_newton_failure_same_with_and_without_the_kernel():
    # The stage equation has no real root for u = -1, h = 0.9 (see above).
    sys1 = make_logistic()
    prop = Propagator(tableau=IMPLICIT_EULER, step=0.9, steps_per_call=1)
    residuals = []
    for system in (sys1, array_only(sys1)):
        with pytest.raises(StepFailureError) as err:
            propagate(prop, system, 0.0, np.array([-1.0]))
        assert err.value.residual is not None and err.value.residual > 0
        residuals.append(err.value.residual)
    assert residuals[0] == residuals[1]


def test_newton_failure_names_its_step_and_batch_row():
    # From u = -0.001 the first step lands below -(1 - h)^2 / (4 h), where
    # the stage equation at h = 0.9 has no real root, so the second fails.
    sys1 = make_logistic()
    prop = Propagator(tableau=IMPLICIT_EULER, step=0.9, steps_per_call=3)
    failures = []
    for u, row in ((np.array([-0.001]), None),
                   (np.array([[0.5], [-0.001], [0.2]]), 1)):
        for system in (sys1, array_only(sys1)):
            with pytest.raises(StepFailureError) as err:
                propagate(prop, system, 0.0, u)
            assert (err.value.step_index, err.value.chunk_index) == (1, row)
            failures.append((err.value.residual, str(err.value)))
    assert failures[0] == failures[1] and failures[2] == failures[3]
    assert failures[2][1].endswith("at internal step 1 (batch element 1)")


@pytest.mark.parametrize("u, row", [([-0.001], None),
                                    ([[0.5], [-0.001]], 1)])
def test_tangent_newton_failure_names_the_same_step(u, row):
    # The implicit tangent path reports the failure that ``propagate`` does.
    sys1 = make_logistic()
    prop = Propagator(tableau=IMPLICIT_EULER, step=0.9, steps_per_call=3)
    u = np.array(u)
    failures = []
    for system in (sys1, array_only(sys1)):
        for run in (lambda: propagate(prop, system, 0.0, u),
                    lambda: propagate_with_tangent(prop, system, 0.0, u,
                                                   np.ones(u.shape + (1,)))):
            with pytest.raises(StepFailureError) as err:
                run()
            assert (err.value.step_index, err.value.chunk_index) == (1, row)
            failures.append((err.value.residual, str(err.value)))
    assert len(set(failures)) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_zero_newton_derivative_is_a_step_failure():
    # u' = u with h = 1: the Newton derivative 1 - h a is exactly zero, and
    # the iteration diverges through inf and nan on both paths.
    lin = make_linear(1.0)
    prop = Propagator(tableau=IMPLICIT_EULER, step=1.0, steps_per_call=1)
    messages = []
    for system in (lin, array_only(lin)):
        with pytest.raises(StepFailureError) as err:
            propagate(prop, system, 0.0, np.array([1.0]))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


# -- compiled kernel ---------------------------------------------------------

needs_kernel = pytest.mark.skipif(kernel_path() != "c",
                                  reason="compiled kernel not available")


@pytest.fixture
def fresh_kernel_load():
    """Forget the loaded library before and after the test."""
    _kernel.load.cache_clear()
    yield
    _kernel.load.cache_clear()


def numpy_walk(prop, system, t0, u):
    """The chunk on the numpy step alone, one rk_step at a time."""
    system = array_only(system)
    for i in range(prop.steps_per_call):
        u = rk_step(prop.tableau, system, t0 + i * prop.step, u, prop.step)
    return u


# Every system with a kernel spec, with a generator of in-range states.  The
# odd Lorenz-96 width D = 13 is a multiple of no vector width, so the
# kernel's vectorized state loops also run their scalar remainders.
KERNEL_SYSTEMS = {
    "logistic": (make_logistic(), lambda rng, n: rng.uniform(0.0, 1.3, (n, 1))),
    "linear": (make_linear(-0.8), lambda rng, n: rng.normal(size=(n, 1))),
    "lorenz63": (make_lorenz63(),
                 lambda rng, n: rng.normal(size=(n, 3)) * 8 + [0.0, 0.0, 20.0]),
    "lorenz96-D40": (make_lorenz96(40),
                     lambda rng, n: 8.0 + rng.normal(size=(n, 40))),
    "lorenz96-D5": (make_lorenz96(5),
                    lambda rng, n: 8.0 + rng.normal(size=(n, 5))),
    "lorenz96-D13": (make_lorenz96(13),
                     lambda rng, n: 8.0 + rng.normal(size=(n, 13))),
}
KERNEL_CASES = [(name, tab) for name, (system, _) in KERNEL_SYSTEMS.items()
                for tab in TABLEAUX.values()
                if tab.is_explicit or (tab.s == 1 and system.dim == 1)]


@needs_kernel
@pytest.mark.parametrize("shape", [(), (1,), (7,), (64,)],
                         ids=["d", "1xd", "7xd", "64xd"])
@pytest.mark.parametrize("name,tab", KERNEL_CASES,
                         ids=[f"{n}-{t.name}" for n, t in KERNEL_CASES])
def test_kernel_bitwise_equal_to_rk_step(name, tab, shape):
    system, states = KERNEL_SYSTEMS[name]
    U = states(np.random.default_rng(3), shape[0] if shape else 1)
    U = U.reshape(shape + (system.dim,))
    prop = Propagator(tableau=tab, step=0.01, steps_per_call=30)
    run = _compiled_kernel(prop, system, U)
    assert run is not None
    out, status, _ = run(U)
    assert status == _kernel.OK
    expected = numpy_walk(prop, system, 0.25, U)
    assert out.shape == expected.shape
    assert np.array_equal(out, expected)
    assert np.array_equal(propagate(prop, system, 0.25, U), expected)


def test_kernel_path_choice():
    """Lorenz-63 single states on an explicit tableau take the float step;
    batches, other single states and one-stage implicit steps with d == 1
    the compiled kernel; d > 1 implicit, float32 input and systems without a
    kernel spec stay on numpy."""
    l63, l96, logistic = make_lorenz63(), make_lorenz96(), make_logistic()
    rk4 = Propagator(tableau=RK4, step=0.01, steps_per_call=3)
    implicit = Propagator(tableau=IMPLICIT_EULER, step=0.01, steps_per_call=3)
    t0 = np.asarray(0.0)
    u3 = np.array([1.0, 2.0, 3.0])
    assert _float_kernel(rk4, l63, t0, u3) is not None
    assert _float_kernel(rk4, l96, t0, np.full(40, 8.0)) is None
    assert _float_kernel(implicit, logistic, t0, np.array([0.5])) is None
    compiled = kernel_path() == "c"
    for prop, system, u in ((rk4, l63, u3[None]), (rk4, l96, np.full(40, 8.0)),
                            (implicit, logistic, np.array([[0.5], [0.2]])),
                            (implicit, logistic, np.array([0.5]))):
        assert (_compiled_kernel(prop, system, u) is not None) == compiled
    assert _compiled_kernel(implicit, l63, u3[None]) is None
    assert _compiled_kernel(rk4, array_only(l63), u3[None]) is None
    assert _compiled_kernel(rk4, l63, u3[None].astype(np.float32)) is None


def test_kernel_loads_where_a_compiler_exists():
    """The kernel tests skip without the library; this one does not."""
    if shutil.which("cc") is None:
        pytest.skip("no cc on this machine")
    assert kernel_path() == "c"


def test_kernel_builds_into_cache_dir(tmp_path, monkeypatch, fresh_kernel_load):
    if shutil.which(_kernel.CC) is None:
        pytest.skip(f"no {_kernel.CC} on this machine")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert kernel_path() == "c"
    built = os.listdir(tmp_path / "paratime")
    assert len(built) == 1 and built[0].endswith(".so")  # no temp file left
    assert not list(_kernel.SOURCE.parent.glob("*.so"))  # none in the package


def test_failed_build_falls_back_to_numpy(tmp_path, monkeypatch,
                                          fresh_kernel_load):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # the fallback
    monkeypatch.setattr(_kernel, "CC", str(tmp_path / "no-such-cc"))
    assert kernel_path() == "numpy"
    system, states = KERNEL_SYSTEMS["lorenz63"]
    U = states(np.random.default_rng(4), 7)
    prop = Propagator(tableau=RK4, step=0.01, steps_per_call=30)
    assert _compiled_kernel(prop, system, U) is None
    assert np.array_equal(propagate(prop, system, 0.0, U),
                          numpy_walk(prop, system, 0.0, U))


@needs_kernel
def test_kernel_rounds_multiply_and_add_separately():
    """Canary for a fused multiply-add: one Euler step on u' = a u is
    u + h (a u); fused, its last bit differs on some of these rows."""
    a, h = -0.8, 0.1
    U = np.random.default_rng(5).uniform(0.1, 10.0, (64, 1))
    prop = Propagator(tableau=EULER, step=h, steps_per_call=1)
    out, status, _ = _compiled_kernel(prop, make_linear(a), U)(U)
    unfused = U + (h * 1.0) * (a * U)
    fused = np.array([[float(Fraction(h) * Fraction(float(a * u)) + Fraction(u))]
                      for (u,) in U])
    assert np.any(fused != unfused)  # the rows can tell the two apart
    assert status == _kernel.OK
    assert np.array_equal(out, unfused)


def test_kernel_blowup_step_and_chunk_parity():
    lin = make_linear(80.0)
    prop = Propagator(tableau=EULER, step=10.0, steps_per_call=150)
    U = np.array([[1e-300], [1.0], [2.0]])
    errors = []
    for system in (lin, array_only(lin)):
        with pytest.raises(BlowUpError) as err:
            propagate(prop, system, 0.0, U)
        errors.append((err.value.step_index, err.value.chunk_index,
                       str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] is not None and errors[0][1] == 1


def test_kernel_newton_failure_parity():
    # The row u = -1 has no real stage solution at h = 0.9 (see above).
    sys1 = make_logistic()
    prop = Propagator(tableau=IMPLICIT_EULER, step=0.9, steps_per_call=1)
    U = np.array([[0.5], [-1.0], [0.2]])
    failures = []
    for system in (sys1, array_only(sys1)):
        with pytest.raises(StepFailureError) as err:
            propagate(prop, system, 0.0, U)
        failures.append((err.value.residual, str(err.value)))
    assert failures[0] == failures[1]
    assert failures[0][0] > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kernel_zero_newton_derivative_parity():
    # u' = u with h = 1: the Newton derivative 1 - h a is exactly zero.
    lin = make_linear(1.0)
    prop = Propagator(tableau=IMPLICIT_EULER, step=1.0, steps_per_call=1)
    U = np.array([[1.0], [0.5]])
    failures = []
    for system in (lin, array_only(lin)):
        with pytest.raises(StepFailureError) as err:
            propagate(prop, system, 0.0, U)
        failures.append(str(err.value))
    assert failures[0] == failures[1]


# -- compiled tangent kernel -------------------------------------------------

def numpy_tangent_walk(prop, system, t0, u, tangent):
    """The chunk with its tangent block on the numpy step alone."""
    system = array_only(system)
    for i in range(prop.steps_per_call):
        u, tangent = rk_step_with_tangent(prop.tableau, system,
                                          t0 + i * prop.step, u, tangent,
                                          prop.step)
    return u, tangent


# The width m = 7, like D = 13, leaves a remainder after the vectorized
# tangent loops.
TANGENT_CASES = [(name, tab, m)
                 for name, (system, _) in KERNEL_SYSTEMS.items()
                 for tab in TABLEAUX.values() if tab.is_explicit
                 for m in sorted({1, 7, system.dim})]


@needs_kernel
@pytest.mark.parametrize("shape", [(), (1,), (7,), (64,)],
                         ids=["d", "1xd", "7xd", "64xd"])
@pytest.mark.parametrize("name,tab,m", TANGENT_CASES,
                         ids=[f"{n}-{t.name}-m{m}" for n, t, m in TANGENT_CASES])
def test_tangent_kernel_bitwise_equal_to_rk_step_with_tangent(name, tab, m,
                                                              shape):
    system, states = KERNEL_SYSTEMS[name]
    rng = np.random.default_rng(6)
    U = states(rng, shape[0] if shape else 1).reshape(shape + (system.dim,))
    G = rng.normal(size=U.shape + (m,))
    prop = Propagator(tableau=tab, step=0.01, steps_per_call=30)
    u_expected, g_expected = numpy_tangent_walk(prop, system, 0.25, U, G)
    g = G.copy()
    out, status, _ = _compiled_kernel(prop, system, U)(U, g)
    assert status == _kernel.OK
    assert np.array_equal(out, u_expected)
    assert np.array_equal(g, g_expected)
    u_got, g_got = propagate_with_tangent(prop, system, 0.25, U, G)
    assert np.array_equal(u_got, u_expected)
    assert np.array_equal(g_got, g_expected)
    assert np.array_equal(u_got, propagate(prop, system, 0.25, U))


def test_tangent_path_choice(monkeypatch):
    """Explicit tableaux with a kernel spec and a (..., d, m) float64 block
    take the compiled kernel; implicit tableaux, kernel-less systems,
    broadcast and non-float64 blocks take the numpy step."""
    calls = []

    def counted(*args):
        calls.append(1)
        return rk_step_with_tangent(*args)

    monkeypatch.setattr(integrators, "rk_step_with_tangent", counted)
    l63, logistic = make_lorenz63(), make_logistic()
    rk4 = Propagator(tableau=RK4, step=0.01, steps_per_call=3)
    implicit = Propagator(tableau=IMPLICIT_EULER, step=0.01, steps_per_call=3)
    U = np.array([[1.0, 2.0, 20.0], [-3.0, -4.0, 25.0]])
    G = np.broadcast_to(np.eye(3), (2, 3, 3))  # read-only views are copied

    def steps(prop, system, u, tangent):
        calls.clear()
        propagate_with_tangent(prop, system, 0.0, u, tangent)
        return len(calls)

    compiled = 0 if kernel_path() == "c" else 3
    assert steps(rk4, l63, U, G) == compiled
    assert steps(rk4, l63, U[0], np.ones((3, 1))) == compiled
    assert steps(implicit, logistic, np.array([[0.5]]), np.ones((1, 1, 1))) == 3
    assert steps(rk4, array_only(l63), U, G) == 3
    assert steps(rk4, l63, U, np.eye(3)) == 3  # broadcast over the batch
    assert steps(rk4, l63, U, np.ones((2, 3, 1), dtype=np.float32)) == 3


def test_lorenz96_narrow_tangent_blocks_propagate_in_float64():
    """An integer identity takes the numpy step and gives the bits of the
    float64 identity; a float32 block gives float64 output within rounding."""
    l96 = make_lorenz96()
    rk4 = Propagator(tableau=RK4, step=0.01, steps_per_call=5)
    u = np.full(40, 8.0)
    u[0] += 0.01
    state, jac = propagate_with_tangent(rk4, l96, 0.0, u, np.eye(40))
    for dtype in (np.int64, np.float32):
        got_state, got = propagate_with_tangent(rk4, l96, 0.0, u,
                                                np.eye(40, dtype=dtype))
        assert got.dtype == np.float64
        assert np.array_equal(got_state, state)
        assert np.array_equal(got, jac)


def test_tangent_blowup_step_and_chunk_parity():
    lin = make_linear(80.0)
    prop = Propagator(tableau=EULER, step=10.0, steps_per_call=150)
    U = np.array([[1e-300], [1.0], [2.0]])
    errors = []
    for system in (lin, array_only(lin)):
        with pytest.raises(BlowUpError) as err:
            propagate_with_jacobian(prop, system, 0.0, U)
        errors.append((err.value.step_index, err.value.chunk_index,
                       str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] is not None and errors[0][1] == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda prop, system, U: propagate(prop, system, 0.0, U),
    lambda prop, system, U: propagate_with_jacobian(prop, system, 0.0, U),
    lambda prop, system, U: propagate_with_tangent(prop, system, 0.0, U,
                                                   np.ones(U.shape + (2,)))],
    ids=["propagate", "jacobian", "tangent"])
def test_numpy_step_loop_blowup_is_one_error_and_no_warning(call):
    """The numpy step loops overflow quietly: under warnings-as-errors a
    blow-up still surfaces as the BlowUpError that names its step."""
    system = array_only(make_linear(80.0))
    prop = Propagator(tableau=EULER, step=10.0, steps_per_call=150)
    with pytest.raises(BlowUpError) as err:
        call(prop, system, np.array([[1e-300], [1.0]]))
    assert err.value.step_index is not None and err.value.chunk_index == 1


def test_propagate_with_tangent_leaves_the_callers_block():
    sys40 = make_lorenz96()
    prop = Propagator(tableau=RK4, step=1e-3, steps_per_call=20)
    U = np.stack([sys40.params["F"] + np.linspace(0.0, 1.0, 40)] * 3)
    G = np.broadcast_to(np.eye(40), (3, 40, 40)).copy()
    seed = G.copy()
    out, tangent = propagate_with_tangent(prop, sys40, 0.0, U, G)
    assert np.array_equal(G, seed)
    state, jac = propagate_with_jacobian(prop, sys40, 0.0, U)
    assert np.array_equal(out, state) and np.array_equal(tangent, jac)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_tangent_only_blowup_message_parity():
    """A tangent block that overflows while the state stays finite raises
    the same error on both paths."""
    lin = make_linear(1.0)
    prop = Propagator(tableau=RK4, step=0.5, steps_per_call=4)
    U = np.array([[1.0], [2.0]])
    G = np.full((2, 1, 1), 1e308)
    for system in (lin, array_only(lin)):
        assert np.isfinite(propagate(prop, system, 0.0, U)).all()
        with pytest.raises(BlowUpError, match="^tangent block became "
                                              "non-finite$") as err:
            propagate_with_tangent(prop, system, 0.0, U, G)
        assert err.value.step_index is None


def test_tangent_without_compiler_gives_the_same_bits(tmp_path, monkeypatch,
                                                      fresh_kernel_load):
    system, states = KERNEL_SYSTEMS["lorenz96-D40"]
    U = states(np.random.default_rng(8), 5)
    G = np.broadcast_to(np.eye(40), (5, 40, 40))

    def run():
        prop = Propagator(tableau=RK4, step=0.01, steps_per_call=20)
        return propagate_with_tangent(prop, system, 0.0, U, G), kernel_path()

    (u_c, g_c), path_c = run()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(_kernel, "CC", str(tmp_path / "no-such-cc"))
    _kernel.load.cache_clear()
    (u_n, g_n), path_n = run()
    assert path_n == "numpy"
    assert np.array_equal(u_c, u_n)
    assert np.array_equal(g_c, g_n)


# -- compiled calls split across threads -------------------------------------

@pytest.fixture
def thread_starts(monkeypatch):
    """Every thread started while the test runs."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


@pytest.fixture
def blocks(monkeypatch):
    """Set how many blocks a compiled explicit call is split into."""
    def split_into(n):
        monkeypatch.setattr(_kernel, "MIN_WORK", 1)
        monkeypatch.setattr(_kernel, "cpu_count", lambda: n)
    return split_into


SPLIT_CASES = [(name, tab, m)
               for name, (system, _) in KERNEL_SYSTEMS.items()
               for tab in TABLEAUX.values() if tab.is_explicit
               for m in sorted({0, 1, system.dim})]


@needs_kernel
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("name,tab,m", SPLIT_CASES,
                         ids=[f"{n}-{t.name}-m{m}" for n, t, m in SPLIT_CASES])
def test_split_call_bitwise_equal_to_one_block(name, tab, m, n, blocks,
                                               thread_starts):
    system, states = KERNEL_SYSTEMS[name]
    rng = np.random.default_rng(9)
    U = states(rng, 7)  # 7 rows: no block count here divides them
    G = rng.normal(size=U.shape + (m,)) if m else None
    prop = Propagator(tableau=tab, step=0.01, steps_per_call=30)
    run = _compiled_kernel(prop, system, U)

    def call():
        g = None if G is None else G.copy()
        out, status, _ = run(U, g)
        return out, status, g

    blocks(1)
    u1, status1, g1 = call()
    assert not thread_starts
    blocks(n)
    u_n, status_n, g_n = call()
    assert len(thread_starts) == n - 1
    assert status1 == status_n == _kernel.OK
    assert np.array_equal(u1, u_n)
    assert m == 0 or np.array_equal(g1, g_n)


@needs_kernel
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 3, 5])
def test_split_call_blowup_in_last_block_parity(n, blocks):
    """A row that overflows in the last block names the same step and
    chunk; a tangent that overflows there gives the same message."""
    lin = make_linear(80.0)
    prop = Propagator(tableau=EULER, step=10.0, steps_per_call=150)
    U = np.array([[1e-300]] * 6 + [[1.0]])
    tan_prop = Propagator(tableau=RK4, step=0.5, steps_per_call=4)
    ones = np.ones((7, 1))
    G = np.ones((7, 1, 1))
    G[-1] = 1e308
    errors = []
    for count in (1, n):
        blocks(count)
        with pytest.raises(BlowUpError) as err:
            propagate(prop, lin, 0.0, U)
        with pytest.raises(BlowUpError) as tan_err:
            propagate_with_tangent(tan_prop, make_linear(1.0), 0.0, ones, G)
        errors.append((err.value.step_index, err.value.chunk_index,
                       str(err.value), str(tan_err.value)))
    assert errors[0] == errors[1]
    assert errors[0][1] == 6
    assert errors[0][3] == "tangent block became non-finite"


def test_split_call_return_codes_gravest_first():
    OK, NONFINITE = _kernel.OK, _kernel.NONFINITE
    TANGENT, NO_MEMORY = _kernel.TANGENT_NONFINITE, _kernel.NO_MEMORY
    assert _kernel._combine([OK, OK]) == OK
    assert _kernel._combine([OK, TANGENT]) == TANGENT
    assert _kernel._combine([TANGENT, NONFINITE, OK]) == NONFINITE
    assert _kernel._combine([NONFINITE, NO_MEMORY]) == NO_MEMORY


def test_worker_exception_reaches_the_caller(thread_starts):
    def call(lo, hi):
        if lo == 2:
            raise ValueError("block at row 2")
        return lo

    assert _kernel.run_blocks(call, [(0, 1), (1, 2)]) == [0, 1]
    with pytest.raises(ValueError, match="block at row 2"):
        _kernel.run_blocks(call, [(0, 1), (1, 2), (2, 3)])
    assert len(thread_starts) == 3
    assert not any(thread.is_alive() for thread in thread_starts)


@needs_kernel
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_split_threads_bounded_by_affinity_mask(cpus, monkeypatch,
                                                thread_starts):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    system, states = KERNEL_SYSTEMS["lorenz96-D40"]
    U = states(np.random.default_rng(10), 64)
    prop = Propagator(tableau=RK4, step=0.01, steps_per_call=5)
    # Below 2 * MIN_WORK a call runs on the caller alone.
    assert 64 * 40 * 5 < 2 * _kernel.MIN_WORK
    propagate(prop, system, 0.0, U)
    assert not thread_starts
    monkeypatch.setattr(_kernel, "MIN_WORK", 1)
    propagate(prop, system, 0.0, U)
    propagate_with_jacobian(prop, system, 0.0, U)
    assert len(thread_starts) == 2 * (cpus - 1)
