import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from paratime.config import (SolveConfig, SweepConfig, dump_config,
                             load_solve_config, load_sweep_config)
from paratime.engine import fine_serial_reference
from paratime.errors import ConfigError
from paratime.experiments import (_ReferenceCache, emit_plotdata, read_basin,
                                  read_sweep_csv, run_single, run_sweep,
                                  write_basin)
from paratime.integrators import (IMPLICIT_EULER, RK4, GridSpec, Propagator,
                                  fine_propagator)
from paratime.metrics import basin_scan
from paratime.systems import make_logistic, make_lorenz63


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
    with pytest.raises(ConfigError):
        SolveConfig.from_dict({"sistem": "logistic"})


def test_config_yaml_round_trip(tmp_path):
    cfg = small_solve_config(check="psi", weight="lipschitz")
    path = tmp_path / "run.yaml"
    dump_config(cfg, str(path))
    loaded = load_solve_config(str(path))
    assert loaded.to_dict() == cfg.to_dict()
    # parse -> serialize -> parse is the identity
    path2 = tmp_path / "run2.yaml"
    dump_config(loaded, str(path2))
    assert load_solve_config(str(path2)).to_dict() == cfg.to_dict()


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
    loaded = load_sweep_config(str(path))
    assert loaded.to_dict() == sweep.to_dict()


def test_cli_overrides_take_precedence(tmp_path):
    cfg = small_solve_config()
    path = tmp_path / "run.yaml"
    dump_config(cfg, str(path))
    loaded = load_solve_config(str(path), {"N": 4, "eps": None})
    assert loaded.N == 4
    assert loaded.eps == cfg.eps


def test_run_single_fills_metrics():
    report, met = run_single(small_solve_config())
    assert report.converged
    assert met.K == report.K
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


def test_emit_plotdata_series(tmp_path):
    sweep = small_sweep_config()
    csv_path = tmp_path / "sweep.csv"
    run_sweep(sweep, str(csv_path))
    files = emit_plotdata(str(csv_path), "K_vs_T", str(tmp_path / "plots"))
    assert len(files) == 2  # one per criterion series
    for path in files:
        lines = [ln for ln in open(path) if not ln.startswith("#")]
        assert len(lines) == 3  # one per N
        assert all(len(ln.split()) == 5 for ln in lines)
    files = emit_plotdata(str(csv_path), "serial_work", str(tmp_path / "p2"))
    assert len(files) == 2
    with pytest.raises(ConfigError):
        emit_plotdata(str(csv_path), "heatmap", str(tmp_path))


def test_basin_round_trip(tmp_path):
    sys3 = make_lorenz63()
    fine = Propagator(tableau=RK4, step=1e-3, steps_per_call=100)
    grid = basin_scan(sys3, fine, np.array([13.8, 13.0, 34.9]), 0, 2,
                      ((-5.0, 5.0), (20.0, 40.0)), resolution=7)
    path = tmp_path / "basin.dat"
    write_basin(grid, str(path))
    loaded = read_basin(str(path))
    # loss-free at 6 significant digits: writing again is byte-identical
    path2 = tmp_path / "basin2.dat"
    write_basin(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()
    assert np.allclose(loaded.values, grid.values, rtol=1e-5)
    files = emit_plotdata(str(path), "basin", str(tmp_path / "p3"))
    assert len(files) == 1


@pytest.mark.parametrize("system,tab,u0", [
    (make_lorenz63(), RK4, [1.0, 1.0, 1.0]),
    (make_logistic(), IMPLICIT_EULER, [1e-3]),
], ids=["lorenz63-rk4", "logistic-implicit-euler"])
def test_reference_cache_matches_serial_reference_bitwise(system, tab, u0):
    """The sweep's one shared walk gives every row's serial fine reference,
    bit for bit, and so does the walk without float kernels."""
    u0 = np.array(u0)
    grids = [GridSpec.make(T=T, N=N, xi=10, h=1e-3)
             for T, N in ((0.8, 4), (1.6, 4), (1.6, 16))]
    array_only = dataclasses.replace(system, scalar_rhs=None, scalar_jac=None,
                                     kernel=None)
    cache = _ReferenceCache(system, tab, 1e-3, u0, grids)
    array_cache = _ReferenceCache(array_only, tab, 1e-3, u0, grids)
    for step in cache.snapshots:
        assert np.array_equal(cache.snapshots[step], array_cache.snapshots[step])
    for grid in grids:
        ref = fine_serial_reference(fine_propagator(grid, tab), system, grid, u0)
        assert np.array_equal(cache.trajectory(grid).states, ref.states)
