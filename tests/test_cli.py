import argparse
import shlex
from pathlib import Path

import pytest

from paratime import _kernel, engine, experiments
from paratime.cli import build_parser, main
from paratime.config import dump_config
from paratime.errors import BlowUpError
from paratime.integrators import kernel_path
from sweep_csv import read_sweep_csv


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


def test_set_flags_override_the_file_and_unset_flags_keep_it(tmp_path,
                                                           capsys):
    path = write_small_config(tmp_path)  # N=8, eps=1e-10
    assert main(["solve", "--config", path, "--N", "4"]) == 0
    out = capsys.readouterr().out
    assert " N=4 " in out and " eps=1e-10" in out


def test_solve_zero_step_is_a_configuration_error(capsys):
    assert main(["solve", "--preset", "logistic-single", "--h", "0"]) == 1
    err = capsys.readouterr().err
    assert "configuration error: h: " in err and "Traceback" not in err


@pytest.mark.parametrize("command, preset", [
    ("solve", "table-logistic-strong"), ("sweep", "lorenz63-single")])
def test_preset_of_the_wrong_kind_names_it(command, preset, capsys):
    assert main([command, "--preset", preset]) == 1
    assert f"configuration error: preset: {preset!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("text, reason", [
    (None, "No such file"), ("T: [1.0\n", "invalid YAML"),
    ("- 1.0\n- 2.0\n", "top level is a list, not a mapping")],
    ids=["missing", "syntax", "list"])
def test_bad_config_file_is_a_configuration_error_naming_it(
        command, text, reason, tmp_path, capsys):
    path = tmp_path / "run.yaml"
    if text is not None:
        path.write_text(text)
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: config file {str(path)!r}: ")
    assert reason in err and "Traceback" not in err


@pytest.mark.parametrize("command, text, field", [
    ("solve", "system: lorenz63\nparams: 5\n", "params"),
    ("solve", "system: lorenz63\nu0: foo\n", "u0"),
    ("sweep", "base: {system: logistic, T: 0.4, N: 4, xi: 10, h: 0.01}\n"
              "mode: strong\nN_list: 4\n", "N_list"),
    ("sweep", "base: {system: logistic, T: 0.4, N: 4, xi: 10, h: 0.01}\n"
              "mode: strong\nN_list: [4.5, 8]\n", "N_list")],
    ids=["params-int", "u0-word", "N_list-int", "N_list-fraction"])
def test_badly_shaped_field_is_a_configuration_error_naming_it(
        command, text, field, tmp_path, capsys):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    argv = [command, "--config", str(path)]
    if command == "sweep":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {field}: ")
    assert "Traceback" not in err


def test_solve_lyapunov_weight_without_lam_names_lam(capsys):
    code = main(["solve", "--system", "lorenz63", "--T", "0.4", "--N", "4",
                 "--xi", "10", "--h", "0.01", "--check", "standard",
                 "--weight", "lyapunov"])
    assert code == 1
    assert "configuration error: lam: " in capsys.readouterr().err


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


def test_lyapunov_command(capsys):
    code = main(["lyapunov", "--system", "logistic", "--u0", "0.5",
                 "--spinup", "2", "--horizon", "30", "--renorm", "1",
                 "--step", "0.01"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("lambda=")
    assert float(out.split("=")[1]) < -0.5


def test_lyapunov_spinup_zero_is_valid(capsys):
    assert main(["lyapunov", "--system", "logistic", "--u0", "0.5",
                 "--spinup", "0", "--horizon", "5", "--renorm", "1",
                 "--step", "0.01"]) == 0
    assert capsys.readouterr().out.startswith("lambda=")


def test_preset_listing_and_single(capsys):
    code = main(["solve", "--preset", "logistic-single", "--T", "16.0",
                 "--N", "4"])
    assert code == 0
    assert "converged=true" in capsys.readouterr().out


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GRID = ["T", "N", "xi", "h", "L"]
ALL_FIELDS = ["system", "u0", "fine", "coarse", *GRID, "eps", "check",
              "weight", "lam"]
# The config fields each subcommand reads, and so the field flags it takes.
FIELDS = {"solve": ALL_FIELDS,
          "bounds": ["system", "u0", "fine", "coarse", *GRID, "eps"],
          "lyapunov": ["system", "u0"]}
OWN_FLAGS = {"solve": [],
             "sweep": ["--config", "--preset", "--mode", "--N-list",
                       "--T-list", "--out"],
             "bounds": ["--K", "--q", "--out"],
             "lyapunov": ["--spinup", "--horizon", "--renorm", "--step"]}
REMOVED = [(command, f"--{name}") for command in ("bounds", "lyapunov")
           for name in ALL_FIELDS if name not in FIELDS[command]]


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert sorted(subparsers.choices) == sorted(OWN_FLAGS)
    for command, sub in subparsers.choices.items():
        got = {s for a in sub._actions for s in a.option_strings}
        config = (["--config", "--preset"] if command in FIELDS else [])
        want = {"-h", "--help", *config, *OWN_FLAGS[command],
                *(f"--{name}" for name in FIELDS.get(command, []))}
        assert got == want, command
    assert len(REMOVED) == 14


@pytest.mark.parametrize("command, flag", REMOVED)
def test_a_flag_the_command_does_not_read_is_a_configuration_error(
        command, flag, capsys):
    argv = {"bounds": ["bounds", "--preset", "logistic-single"],
            "lyapunov": ["lyapunov", "--system", "logistic"]}[command]
    assert main(argv + [flag, "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and flag in err


@pytest.mark.parametrize("argv, flag", [
    (["--config", str(CONFIGS / "serial_work_time_scaling.yaml"),
      "--N-list", "8"], "--N-list"),
    (["--preset", "table-logistic-strong", "--T-list", "3.2"], "--T-list"),
    (["--preset", "table-logistic-strong", "--mode", "weak", "--T-list", "3"],
     "--T-list")])
def test_sweep_list_flag_its_mode_does_not_read_names_the_flag(argv, flag,
                                                               capsys):
    assert main(["sweep", *argv]) == 1
    assert capsys.readouterr().err.startswith(f"configuration error: {flag}: ")


@pytest.mark.parametrize("argv, text", [
    (["solve", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["solve", "--N", "x"], "argument --N: invalid int value: 'x'"),
    (["solve", "--u0", "1,a"], "argument --u0: invalid"),
    (["sweep", "--preset", "table-logistic-strong", "--N-list", "2,x"],
     "argument --N-list: invalid"),
    ([], "the following arguments are required: command"),
    (["basin", "--preset", "lorenz63-single"], "invalid choice: 'basin'"),
    (["plotdata", "--csv", "sweep.csv"], "invalid choice: 'plotdata'")])
def test_usage_errors_are_configuration_errors(argv, text, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: paratime") and text in err


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    # Every ``paratime`` line of the README's "Command line" sh block, with
    # its backslash continuations joined.
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("paratime ")]


def test_readme_has_command_examples():
    assert readme_commands()


@pytest.mark.parametrize("argv", readme_commands())
def test_readme_command_example_parses(argv):
    build_parser().parse_args(argv[1:])


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as done:
        main(["bounds", "--help"])
    assert done.value.code == 0
    assert "--eps" in capsys.readouterr().out


def test_bounds_checks_eps_its_inner_radius(capsys):
    assert main(["bounds", "--preset", "logistic-single", "--eps", "0"]) == 1
    assert "configuration error: eps: " in capsys.readouterr().err


@pytest.mark.parametrize("text, field", [
    ("base: 5\nN_list: [2]\n", "base"),
    ("base: {system: logistic}\nN_list: [2]\ncriteria: [standard]\n",
     "criteria")])
def test_sweep_config_of_the_wrong_shape_names_the_field(text, field,
                                                        tmp_path, capsys):
    path = tmp_path / "sweep.yaml"
    path.write_text(text)
    assert main(["sweep", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {field}: ")
    assert "Traceback" not in err


# The README example and its horizon doubled, where beta is about 267.
README_BOUNDS = ["bounds", "--preset", "lorenz63-single", "--N", "8", "--T", "0.8"]
BETA_267 = ["bounds", "--preset", "lorenz63-single", "--N", "16", "--T", "1.6"]


@pytest.mark.parametrize("argv, radius, slow", [
    (README_BOUNDS + ["--K", "3"], "0.000669769", False),
    (README_BOUNDS + ["--xi", "1", "--h", "0.01"], "inf", False),  # beta = 0
    (README_BOUNDS + ["--K", "100000"], "inf", False),  # beta^K underflows
    (BETA_267 + ["--K", "3"], "5.22951e-17", True),
    (BETA_267 + ["--K", "200"], "0", True),  # beta^K overflows
    # beta^e overflows, and the root 1/q^K brings R back to about 1/beta.
    (BETA_267 + ["--K", "30", "--q", "2"], "0.00373956", False)])
def test_bounds_prints_the_outer_radius_for_any_beta(argv, radius, slow,
                                                      capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert f"outer_radius_R      {radius}\n" in out
    assert ("warning: beta >= 1" in out) == slow


@pytest.mark.parametrize("argv, flag", [
    (README_BOUNDS + ["--K", "0"], "--K"),
    (README_BOUNDS + ["--q", "0.5"], "--q"),
    (["lyapunov", "--system", "lorenz63", "--horizon", "0"], "--horizon"),
    (["lyapunov", "--system", "lorenz63", "--renorm", "0"], "--renorm"),
    (["lyapunov", "--system", "lorenz63", "--step", "-1"], "--step"),
    (["lyapunov", "--system", "lorenz63", "--spinup", "-5"], "--spinup"),
    (["lyapunov", "--system", "lorenz63", "--spinup", "nan"], "--spinup"),
    (["lyapunov", "--system", "lorenz63", "--spinup", "inf"], "--spinup"),
    (["sweep", "--preset", "table-logistic-strong", "--N-list", "16.9"],
     "--N-list"),
    (["sweep", "--preset", "table-logistic-strong", "--N-list", "128",
      "--out", "/nonexistent/x.csv"], "--out"),
    (README_BOUNDS + ["--out", "/nonexistent/b.csv"], "--out")])
def test_a_bad_value_for_a_command_flag_names_the_flag(argv, flag, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"configuration error: {flag}: ")


# A command with --out, and the function that does its work.
OUT_COMMANDS = pytest.mark.parametrize("argv, owner, work", [
    (["sweep", "--preset", "table-logistic-strong", "--N-list", "128"],
     experiments, "run_sweep"),
    (README_BOUNDS, engine, "fine_serial_reference")], ids=["sweep", "bounds"])


@OUT_COMMANDS
def test_unwritable_out_is_found_before_computing(argv, owner, work,
                                                  monkeypatch, capsys):
    def refused(*args):
        raise AssertionError("computed before the --out path was checked")

    monkeypatch.setattr(owner, work, refused)
    assert main(argv + ["--out", "/nonexistent/x.csv"]) == 1
    assert capsys.readouterr().err == (
        "configuration error: --out: cannot write '/nonexistent/x.csv': "
        "No such file or directory\n")


@OUT_COMMANDS
def test_failed_computation_leaves_the_out_path_as_it_was(argv, owner, work,
                                                          monkeypatch,
                                                          tmp_path):
    def blow_up(*args):
        raise BlowUpError("state became non-finite")

    monkeypatch.setattr(owner, work, blow_up)
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("kept\n")
    assert main(argv + ["--out", str(old)]) == 2
    assert main(argv + ["--out", str(new)]) == 2
    assert old.read_text() == "kept\n" and not new.exists()


def test_newton_failure_names_the_chunk_and_step(capsys):
    # The stage equation of u = -1 at h = 0.9 has no real root: the coarse
    # guess fails in its first chunk.
    assert main(["solve", "--system", "logistic", "--u0", "-1", "--fine",
                 "implicit_euler", "--coarse", "implicit_euler", "--T", "3.6",
                 "--N", "4", "--xi", "1", "--h", "0.9"]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: sweep failed in chunk 1: implicit stage solve did "
        "not converge in 50 iterations (max residual 3.213e+00) at internal "
        "step 0\n")
