import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml

from paratime import integrators
from paratime.config import SolveConfig, SweepConfig, dump_config, load_config
from paratime.engine import fine_serial_reference
from paratime.errors import BlowUpError, ConfigError, StepFailureError
from paratime.experiments import _ReferenceCache, run_single, run_sweep
from paratime.integrators import (IMPLICIT_EULER, RK4, GridSpec,
                                  fine_propagator, kernel_path)
from paratime.presets import PRESETS
from paratime.systems import (make_linear, make_logistic, make_lorenz63,
                              make_lorenz96)
from sweep_csv import read_sweep_csv


def small_solve_config(**overrides):
    base = dict(system="logistic", u0=[0.5], fine="implicit_euler",
                coarse="implicit_euler", T=6.4, N=8, xi=10, h=0.01,
                eps=1e-10, check="standard", weight="unit")
    base.update(overrides)
    return SolveConfig.from_dict(base)


def small_sweep_config(**overrides):
    base = dict(base=small_solve_config().to_dict(), mode="strong",
                N_list=[2, 4, 8],
                criteria=[{"check": "standard", "weight": "unit"},
                          {"check": "psi", "weight": "unit"}])
    base.update(overrides)
    return SweepConfig.from_dict(base)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        small_solve_config(check="psiX").validate()
    with pytest.raises(ConfigError):
        small_solve_config(weight="dynamic").validate()
    with pytest.raises(ConfigError):
        small_solve_config(fine="rk44").validate()
    with pytest.raises(ConfigError):
        small_solve_config(h=0.013).validate()  # L not integer
    with pytest.raises(ConfigError):
        small_solve_config(check="psi", weight="lyapunov").validate()
    for key in ("sistem", "seed"):
        with pytest.raises(ConfigError, match="unknown config keys"):
            SolveConfig.from_dict({key: "logistic"})


def test_config_yaml_round_trip(tmp_path):
    cfg = small_solve_config(check="psi", weight="lipschitz")
    path = tmp_path / "run.yaml"
    dump_config(cfg, str(path))
    loaded = load_config(SolveConfig, path=str(path))
    assert loaded.to_dict() == cfg.to_dict()
    # parse -> serialize -> parse is the identity
    path2 = tmp_path / "run2.yaml"
    dump_config(loaded, str(path2))
    assert load_config(SolveConfig, path=str(path2)).to_dict() == cfg.to_dict()


CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
def test_shipped_config_files_load_and_validate(name):
    """A file with a ``base`` key is a sweep, any other a single run."""
    path = os.path.join(CONFIG_DIR, name)
    with open(path) as fh:
        is_sweep = "base" in yaml.safe_load(fh)
    cls = SweepConfig if is_sweep else SolveConfig
    cfg = load_config(cls, path=path)
    assert isinstance(cfg, cls)
    cfg.validate()


def test_import_leaves_yaml_unloaded():
    """Only reading or writing a config file loads the YAML parser."""
    import paratime
    src = os.path.dirname(os.path.dirname(paratime.__file__))
    code = "import sys, paratime, paratime.cli; print('yaml' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_sweep_yaml_round_trip(tmp_path):
    sweep = small_sweep_config()
    path = tmp_path / "sweep.yaml"
    dump_config(sweep, str(path))
    loaded = load_config(SweepConfig, path=str(path))
    assert loaded.to_dict() == sweep.to_dict()


def test_load_config_applies_set_overrides_over_a_preset():
    cfg = load_config(SolveConfig, preset="lorenz63-single",
                      overrides={"N": 4, "eps": None})
    assert cfg.N == 4
    assert cfg.eps == PRESETS["lorenz63-single"].eps
    assert PRESETS["lorenz63-single"].N == 128  # the preset is not changed


@pytest.mark.parametrize("bad, field", [
    ({"xi": 0}, "xi"), ({"h": 0.0}, "h"), ({"h": None, "L": 0}, "L"),
    ({"h": "1e-3"}, "h"), ({"T": float("nan")}, "T"), ({"eps": None}, "eps"),
    ({"eps": float("nan")}, "eps"), ({"eps": float("inf")}, "eps"),
    ({"check": "psi", "weight": "lyapunov", "lam": float("nan")}, "lam")])
def test_bad_numbers_raise_config_error_naming_the_field(bad, field):
    with pytest.raises(ConfigError, match=f"^{field}: "):
        run_single(small_solve_config(**bad))


def test_run_single_fills_metrics():
    report, met = run_single(small_solve_config())
    assert met.serial_work == pytest.approx(report.K * 0.8)
    assert met.error_l2 < 1e-8
    assert met.w1 >= 0.0


def test_run_single_invalid_tableau_fails_before_compute():
    with pytest.raises(ConfigError):
        run_single(small_solve_config(fine="nope"))


def test_run_single_n1_trivial():
    report, met = run_single(small_solve_config(N=1, T=0.8))
    assert report.K == 1
    assert met.w1 == 0.0


def test_sweep_rows_modes():
    sweep = small_sweep_config(mode="weak", N_list=[2, 4])
    rows = list(sweep.rows())
    # 2 criteria x 2 points, declared order: criterion-major
    assert len(rows) == 4
    cfg0 = rows[0][0]
    assert cfg0.T == pytest.approx(2 * 0.8)
    sweep = small_sweep_config(mode="time", T_list=[1.6, 3.2])
    rows = list(sweep.rows())
    assert rows[0][0].N == 8 and rows[0][0].T == 1.6
    with pytest.raises(ConfigError):
        small_sweep_config(mode="weird").validate()
    with pytest.raises(ConfigError):
        small_sweep_config(N_list=[]).validate()


def test_weak_single_point_matches_strong():
    strong = small_sweep_config(mode="strong", N_list=[8])
    weak = small_sweep_config(mode="weak", N_list=[8])
    srow = next(iter(strong.rows()))[0]
    wrow = next(iter(weak.rows()))[0]
    assert srow.to_dict() == wrow.to_dict()


def test_sweep_base_with_l_and_no_h_steps_every_row_with_its_h():
    """A base that gives L runs as the same base giving the h it derives."""
    base = dict(system="logistic", u0=[0.5], fine="implicit_euler",
                coarse="implicit_euler", T=1.0, N=2, xi=1)
    by_L = SweepConfig.from_dict({"base": {**base, "L": 4},
                                  "N_list": [2, 4]})
    by_h = SweepConfig.from_dict({"base": {**base, "h": 0.125},
                                  "N_list": [2, 4]})
    assert [cfg.h for cfg, _, _ in by_L.rows()] == [0.125, 0.125]
    assert [cfg.L for cfg, _, _ in by_L.rows()] == [None, None]
    assert run_sweep(by_L, "") == run_sweep(by_h, "")


def test_run_sweep_csv_deterministic(tmp_path):
    sweep = small_sweep_config()
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    text1 = run_sweep(sweep, str(out1))
    text2 = run_sweep(sweep, str(out2))
    assert text1 == text2
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_sweep_csv(str(out1))
    assert len(rows) == 6
    assert [r["N"] for r in rows] == [2, 4, 8, 2, 4, 8]
    assert all(r["converged"] for r in rows)
    assert all(r["error_l2"] < 1e-8 for r in rows)
    header = out1.read_text().splitlines()[0]
    assert header.startswith("check,weight,N,T,dT,xi,h,eps,K,converged,S,")


def test_run_sweep_records_failures(tmp_path):
    # An unstable explicit coarse solver (H = 0.4 on a fast system) blows up;
    # the row is recorded and the sweep continues.
    cfg = dict(system="lorenz63", u0=[13.8, 13.0, 34.9], fine="rk4",
               coarse="euler", T=8.0, N=2, xi=100, h=4e-3, eps=1e-9,
               check="standard", weight="unit")
    sweep = SweepConfig.from_dict(dict(base=cfg, mode="strong",
                                       N_list=[2],
                                       criteria=[{"check": "standard",
                                                  "weight": "unit"}]))
    out = tmp_path / "fail.csv"
    run_sweep(sweep, str(out))
    rows = read_sweep_csv(str(out))
    assert len(rows) == 1
    assert not rows[0]["converged"]
    assert rows[0]["error"] != ""


WALKS = [(make_lorenz63(), RK4, [1.0, 1.0, 1.0]),
         (make_logistic(), IMPLICIT_EULER, [1e-3]),
         (make_lorenz96(5), RK4, [8.01, 8.0, 8.0, 8.0, 8.0]),
         (make_linear(-0.5), IMPLICIT_EULER, [1.0])]
WALK_IDS = ["lorenz63-rk4", "logistic-implicit-euler", "lorenz96-rk4",
            "linear-implicit-euler"]
WALK_GRIDS = [GridSpec.make(T=T, N=N, xi=10, h=1e-3)
              for T, N in ((0.8, 4), (1.6, 4), (1.6, 16))]


@pytest.mark.parametrize("system,tab,u0", WALKS, ids=WALK_IDS)
def test_reference_cache_matches_serial_reference_bitwise(system, tab, u0):
    """The sweep's one shared walk gives every row's serial fine reference,
    bit for bit, and so do both walks on the array-only system (no float
    step, no compiled kernel)."""
    u0 = np.array(u0)
    grids = WALK_GRIDS
    array_only = dataclasses.replace(system, scalar_rhs=None, scalar_jac=None,
                                     kernel=None)
    cache = _ReferenceCache(system, tab, 1e-3, u0, grids)
    array_cache = _ReferenceCache(array_only, tab, 1e-3, u0, grids)
    for step in cache.snapshots:
        assert np.array_equal(cache.snapshots[step], array_cache.snapshots[step])
    for grid in grids:
        fine = fine_propagator(grid, tab)
        ref = fine_serial_reference(fine, system, grid, u0)
        assert np.array_equal(cache.trajectory(grid).states, ref.states)
        array_ref = fine_serial_reference(fine, array_only, grid, u0)
        assert np.array_equal(array_ref.states, ref.states)


def _walk_both(system, tab, u0):
    _ReferenceCache(system, tab, 1e-3, np.array(u0), WALK_GRIDS)
    grid = WALK_GRIDS[-1]
    fine_serial_reference(fine_propagator(grid, tab), system, grid,
                          np.array(u0))


@pytest.mark.parametrize("system,tab,u0", WALKS[:2], ids=WALK_IDS[:2])
def test_walks_take_the_float_step_only_without_the_kernel(system, tab, u0,
                                                           monkeypatch):
    """Where the kernel is built, neither serial fine walk takes a float
    step; without the system's kernel both take it at every step."""
    name = "_float_step_" + ("explicit" if tab.is_explicit else "implicit")
    float_step = getattr(integrators, name)
    calls = []

    def counted(*args):
        calls.append(1)
        return float_step(*args)

    def refused(*args):
        raise AssertionError("a serial fine walk took the float step")

    if kernel_path() == "c":
        monkeypatch.setattr(integrators, "_float_step_explicit", refused)
        monkeypatch.setattr(integrators, "_float_step_implicit", refused)
        _walk_both(system, tab, u0)
        monkeypatch.undo()
    monkeypatch.setattr(integrators, name, counted)
    _walk_both(dataclasses.replace(system, kernel=None), tab, u0)
    # The shared walk runs to the longest horizon, then the T = 1.6 row.
    assert len(calls) == 2 * 1600


@pytest.mark.parametrize("tab, h, u0, error", [
    (RK4, 0.001, -0.1, BlowUpError),
    (IMPLICIT_EULER, 0.9, -0.001, StepFailureError)], ids=["blow-up", "newton"])
def test_walk_failures_read_as_without_the_kernel(tab, h, u0, error):
    """A failed stretch of the compiled row walk raises the error, text and
    indices of the walk without the system's kernel."""
    grid = GridSpec.make(T=4000 * h, N=4, xi=10, h=h)
    raised = []
    for system in (make_logistic(),
                   dataclasses.replace(make_logistic(), kernel=None)):
        with pytest.raises(error) as exc:
            fine_serial_reference(fine_propagator(grid, tab), system, grid,
                                  np.array([u0]))
        raised.append((str(exc.value), exc.value.step_index,
                       exc.value.chunk_index))
    assert raised[0] == raised[1]


def test_reference_blow_up_keeps_the_rows_that_end_before_it(tmp_path):
    """Logistic from u0 < 0 runs off to -inf: the shared fine walk fails in
    chunk 3 of the T = 4 row; the T = 1 row ends before that and runs."""
    base = dict(system="logistic", u0=[-0.1], fine="rk4", coarse="rk4",
                T=1.0, N=4, xi=10, h=0.001)
    sweep = SweepConfig.from_dict(dict(base=base, mode="time",
                                       T_list=[1.0, 4.0]))
    out = tmp_path / "blowup.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the BlowUpError is the one report
        run_sweep(sweep, str(out))
    first, second = read_sweep_csv(str(out))
    assert first["converged"] and first["error"] == ""
    assert not second["converged"]
    assert second["error"] == ("fine reference blew up in chunk 3: state "
                               "became non-finite at internal step 400")
    # The row's own serial walk fails at the same chunk and step.
    grid = GridSpec.make(T=4.0, N=4, xi=10, h=0.001)
    with pytest.raises(BlowUpError) as serial:
        fine_serial_reference(fine_propagator(grid, RK4), make_logistic(),
                              grid, np.array([-0.1]))
    assert (serial.value.chunk_index, serial.value.step_index) == (3, 400)


def test_reference_newton_failure_names_the_row_chunk_and_step(tmp_path):
    """Implicit Euler at h = 0.9 from u0 = -0.001 fails in its second step.
    The T = 0.9 row ends after the first and runs; the T = 3.6 row's one
    chunk fails at its step 1, as the row's own serial walk does."""
    base = dict(system="logistic", u0=[-0.001], fine="implicit_euler",
                coarse="implicit_euler", T=0.9, N=1, xi=1, h=0.9)
    sweep = SweepConfig.from_dict(dict(base=base, mode="time",
                                       T_list=[0.9, 3.6]))
    out = tmp_path / "newton.csv"
    run_sweep(sweep, str(out))
    first, second = read_sweep_csv(str(out))
    assert first["converged"] and first["error"] == ""
    assert not second["converged"]
    grid = GridSpec.make(T=3.6, N=1, xi=1, h=0.9)
    with pytest.raises(StepFailureError) as serial:
        fine_serial_reference(fine_propagator(grid, IMPLICIT_EULER),
                              make_logistic(), grid, np.array([-0.001]))
    assert (serial.value.chunk_index, serial.value.step_index) == (1, 1)
    assert second["error"] == str(serial.value).replace(
        "sweep", "fine reference", 1)
