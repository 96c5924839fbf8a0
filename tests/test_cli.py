import numpy as np
import pytest

from paratime import _kernel
from paratime.cli import main
from paratime.config import dump_config
from paratime.experiments import read_sweep_csv
from paratime.integrators import kernel_path


def write_small_config(tmp_path):
    from tests.test_experiments import small_solve_config
    path = tmp_path / "run.yaml"
    dump_config(small_solve_config(), str(path))
    return str(path)


def test_solve_command(tmp_path, capsys):
    path = write_small_config(tmp_path)
    assert main(["solve", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "K=" in out and "converged=true" in out


def test_solve_prints_propagated_counts(tmp_path, capsys):
    path = write_small_config(tmp_path)
    assert main(["solve", "--config", path]) == 0
    out = capsys.readouterr().out
    N = int(out.split(" N=")[1].split()[0])
    K = int(out.split("K=")[1].split()[0])
    line = next(ln for ln in out.splitlines() if ln.startswith("propagated="))
    pairs = [tuple(map(int, p.split(",")))
             for p in line[len("propagated="):].split()]
    assert len(pairs) == K
    assert pairs[0][0] == N  # the first fine sweep has nothing to reuse
    assert all(0 <= f <= N and 0 <= c < N for f, c in pairs)


def test_solve_prints_kernel_path(tmp_path, capsys):
    path = write_small_config(tmp_path)
    assert main(["solve", "--config", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"kernel={kernel_path()}" in lines
    assert kernel_path() in ("c", "numpy")
    threads = _kernel.cpu_count() if kernel_path() == "c" else 1
    assert lines[lines.index(f"kernel={kernel_path()}") + 1] == \
        f"threads={threads}"


def test_solve_validation_exit_code(tmp_path, capsys):
    path = write_small_config(tmp_path)
    assert main(["solve", "--config", path, "--check", "bogus"]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_solve_numerical_failure_exit_code(capsys):
    # explicit Euler coarse at H = 0.4 on a fast chaotic system blows up
    code = main(["solve", "--system", "lorenz63", "--u0", "13.8,13.0,34.9",
                 "--fine", "rk4", "--coarse", "euler", "--T", "8.0",
                 "--N", "2", "--xi", "100", "--h", "4e-3", "--eps", "1e-9",
                 "--check", "standard", "--weight", "unit"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_sweep_command_writes_csv(tmp_path):
    from tests.test_experiments import small_sweep_config
    cfg_path = tmp_path / "sweep.yaml"
    dump_config(small_sweep_config(), str(cfg_path))
    out_path = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out",
                 str(out_path)]) == 0
    rows = read_sweep_csv(str(out_path))
    assert len(rows) == 6


def test_sweep_mode_override(tmp_path):
    from tests.test_experiments import small_sweep_config
    cfg_path = tmp_path / "sweep.yaml"
    dump_config(small_sweep_config(), str(cfg_path))
    out_path = tmp_path / "weak.csv"
    assert main(["sweep", "--config", str(cfg_path), "--mode", "weak",
                 "--N-list", "2,4", "--out", str(out_path)]) == 0
    rows = read_sweep_csv(str(out_path))
    assert [r["N"] for r in rows] == [2, 4, 2, 4]
    assert rows[0]["T"] == pytest.approx(1.6)


def test_bounds_command(tmp_path, capsys):
    path = write_small_config(tmp_path)
    out_csv = tmp_path / "bounds.csv"
    assert main(["bounds", "--config", path, "--K", "3", "--out",
                 str(out_csv)]) == 0
    out = capsys.readouterr().out
    assert "beta" in out and "h_max" in out and "outer_radius_R" in out
    header, values = out_csv.read_text().splitlines()
    assert "beta" in header and len(values.split(",")) == len(header.split(","))


def test_basin_command(tmp_path):
    out = tmp_path / "basin.dat"
    code = main(["basin", "--system", "lorenz63", "--u0", "13.8,13.0,34.9",
                 "--T", "0.5", "--N", "1", "--xi", "10", "--h", "5e-3",
                 "--coord-i", "0", "--coord-j", "2", "--lo-i", "-20",
                 "--hi-i", "20", "--lo-j", "10", "--hi-j", "45",
                 "--resolution", "5", "--out", str(out)])
    assert code == 0
    from paratime.experiments import read_basin
    grid = read_basin(str(out))
    assert grid.values.shape == (5, 5)


def test_lyapunov_command(capsys):
    code = main(["lyapunov", "--system", "logistic", "--u0", "0.5",
                 "--T", "1.0", "--N", "1", "--xi", "1", "--h", "0.01",
                 "--spinup", "2", "--horizon", "30", "--renorm", "1",
                 "--step", "0.01"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("lambda=")
    assert float(out.split("=")[1]) < -0.5


def test_plotdata_command(tmp_path):
    from tests.test_experiments import small_sweep_config
    cfg_path = tmp_path / "sweep.yaml"
    dump_config(small_sweep_config(), str(cfg_path))
    csv_path = tmp_path / "out.csv"
    main(["sweep", "--config", str(cfg_path), "--out", str(csv_path)])
    assert main(["plotdata", "--csv", str(csv_path), "--kind", "K_vs_T",
                 "--out-dir", str(tmp_path / "plots")]) == 0


def test_preset_listing_and_single(capsys):
    code = main(["solve", "--preset", "logistic-single", "--T", "16.0",
                 "--N", "4"])
    assert code == 0
    assert "converged=true" in capsys.readouterr().out
