"""Command-line interface.

Subcommands: ``solve`` (one run), ``sweep`` (scaling study), ``bounds``
(contraction report) and ``lyapunov`` (exponent estimate).

``solve``, ``bounds`` and ``lyapunov`` take ``--config``, ``--preset`` and a
flag for each ``SolveConfig`` field they read (``COMMAND_FIELDS``), and
resolve, and so check, only those fields.
``sweep`` takes ``--N-list`` in the strong and weak modes and ``--T-list``
in the time mode.

Exit codes: 0 success, 1 configuration error (usage errors such as an
unknown flag or a bad value included), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import _kernel
from . import bounds as bounds_mod
from . import engine, experiments, integrators, metrics
from .config import SolveConfig, SweepConfig, load_config
from .errors import ConfigError, NumericalFailure, require_positive
from .presets import PRESETS


def floats(text):
    return [float(v) for v in text.split(",") if v.strip() != ""]


class _Parser(argparse.ArgumentParser):
    """Reports a usage error (unknown flag, bad value) as a ConfigError, so
    it exits 1 like any other configuration error."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


# The SolveConfig fields that flags can set: argparse type and help text.
FIELD_FLAGS = {
    "system": (str, "logistic | lorenz63 | lorenz96"),
    "u0": (floats, "comma-separated initial state"),
    "fine": (str, "fine tableau name"),
    "coarse": (str, "coarse tableau name"),
    "T": (float, "horizon"),
    "N": (int, "number of chunks"),
    "xi": (int, "fine steps per coarse step"),
    "h": (float, "fine step"),
    "L": (int, "coarse steps per chunk"),
    "eps": (float, "tolerance; the inner ball radius for bounds"),
    "check": (str, "standard | psi"),
    "weight": (str, "unit | lyapunov | lipschitz"),
    "lam": (float, "Lyapunov exponent for weight=lyapunov"),
}
_GRID = ("T", "N", "xi", "h", "L")
# The fields each subcommand reads, and so the field flags it takes.
COMMAND_FIELDS = {
    "solve": tuple(FIELD_FLAGS),
    "bounds": ("system", "u0", "fine", "coarse", *_GRID, "eps"),
    "lyapunov": ("system", "u0"),
}


def _add_config_args(p, command):
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named built-in configuration")
    for name in COMMAND_FIELDS[command]:
        kind, text = FIELD_FLAGS[name]
        p.add_argument(f"--{name}", type=kind, help=text)


def _solve_config(args) -> SolveConfig:
    """The preset or config file, overridden by this command's field flags;
    not validated."""
    return load_config(SolveConfig, args.preset, args.config,
                       {name: getattr(args, name)
                        for name in COMMAND_FIELDS[args.command]})


def _cmd_solve(args) -> int:
    cfg = _solve_config(args)
    report, met = experiments.run_single(cfg)
    grid = cfg.resolve_grid()
    print(f"system={cfg.system} N={grid.N} T={grid.T:g} dT={grid.dT:g} "
          f"xi={grid.xi} h={grid.h:g}")
    print(f"check={cfg.check} weight={cfg.weight} eps={cfg.eps:g}")
    # A solve that returns has converged: its criterion fired, or it reached
    # K = N, where finite termination makes the iterate the fine solution.
    print(f"K={report.K} converged=true "
          f"S={met.S:.6g} serial_work={met.serial_work:.6g}")
    print(f"w1={met.w1:.6g} error_l2={met.error_l2:.6g}")
    if report.residual_history:
        print("residuals=" + " ".join(f"{v:.6g}" for v in report.residual_history))
    if report.lipschitz_history:
        print("lipschitz=" + " ".join(f"{v:.6g}" for v in report.lipschitz_history))
    # Per iteration: fine rows,coarse chunks actually propagated.
    print("propagated=" + " ".join(f"{f},{c}" for f, c in report.propagated))
    # Which step ran the batched and Lorenz-96 propagations: c or numpy;
    # then the threads a compiled call of at least 2 * MIN_WORK splits over.
    path = integrators.kernel_path()
    print(f"kernel={path}")
    print(f"threads={_kernel.cpu_count() if path == 'c' else 1}")
    return 0


def _write_out(path: str, text: str | None = None) -> None:
    """Write ``text`` to the ``--out`` file, or without it check before any
    work that the file can be written: appending keeps an existing file's
    contents, and a file that the check made is removed.  A path that
    cannot be written is a configuration error naming the flag."""
    made = text is None and not os.path.lexists(path)
    try:
        with open(path, "w" if text is not None else "a", newline="") as fh:
            fh.write(text or "")
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {path!r}: {exc.strerror}") from exc
    if made:
        os.remove(path)
    elif text is not None:
        print(f"wrote {path}")


def _cmd_sweep(args) -> int:
    if not (args.preset or args.config):
        raise ConfigError("sweep needs --config or --preset")
    if not all(v.is_integer() for v in args.N_list or ()):
        raise ConfigError(f"--N-list: chunk counts must be whole numbers, "
                          f"got {args.N_list}")
    over = {"mode": args.mode,
            "N_list": [int(v) for v in args.N_list] if args.N_list else None,
            "T_list": args.T_list or None}
    sweep = load_config(SweepConfig, args.preset, args.config, over)
    # A list flag the mode does not read is an error; a list in the file may
    # sit unread, so that one file serves several modes.
    for flag, modes in (("N_list", ("time",)), ("T_list", ("strong", "weak"))):
        if getattr(args, flag) and sweep.mode in modes:
            raise ConfigError(f"--{flag.replace('_', '-')}: mode={sweep.mode} "
                              f"does not read it")
    if args.out:
        _write_out(args.out)
    text = experiments.run_sweep(sweep, "")
    if args.out:
        _write_out(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bounds(args) -> int:
    if args.K < 1:
        raise ConfigError(f"--K: must be >= 1, got {args.K}")
    if not 1.0 <= args.q < float("inf"):
        raise ConfigError(f"--q: must be >= 1 and finite, got {args.q}")
    cfg = _solve_config(args)
    require_positive("eps", cfg.eps)  # the inner radius r of the ball budget
    system = cfg.resolve_system()
    u0 = cfg.resolve_u0(system)
    grid = cfg.resolve_grid()
    fine, coarse = cfg.resolve_propagators(grid)
    if args.out:
        _write_out(args.out)
    ref = engine.fine_serial_reference(fine, system, grid, u0)
    cb = bounds_mod.beta_bound(fine, coarse, system, grid,
                               grid.interface_times, ref.states)
    R = bounds_mod.outer_ball_radius(cfg.eps, cb.beta, args.K, args.q)

    rows = [("beta", cb.beta), ("transport", cb.transport),
            ("source_empirical", cb.source), ("source_theoretical",
                                              cb.source_theoretical),
            ("g_norm_sup", cb.g_norm_sup), ("mu", cb.mu), ("nu", cb.nu),
            ("C1", cb.C1), ("C2", cb.C2), ("C3", cb.C3), ("h_max", cb.h_max),
            ("h", grid.h), ("outer_radius_R", R), ("inner_radius_r", cfg.eps),
            ("K_budget", args.K)]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value:.6g}")
    if grid.h >= cb.h_max:
        print("warning: h exceeds the step-size ceiling h_max")
    if cb.beta >= 1.0 and abs(args.q - 1.0) < 1e-12:
        print("warning: beta >= 1, coarse solver must be nearly as accurate "
              "as the fine solver")
    if args.out:  # a one-row CSV: no name or value holds a comma
        _write_out(args.out, ",".join(name for name, _ in rows) + "\n"
                   + ",".join(f"{value:.6g}" for _, value in rows) + "\n")
    return 0


def _cmd_lyapunov(args) -> int:
    for flag in ("horizon", "renorm", "step"):
        require_positive(f"--{flag}", getattr(args, flag))
    if not 0.0 <= args.spinup < float("inf"):
        raise ConfigError(f"--spinup: must be >= 0 and finite, got {args.spinup}")
    cfg = _solve_config(args)
    system = cfg.resolve_system()
    u0 = cfg.resolve_u0(system)
    lam = metrics.lyapunov_estimate(system, u0, spinup=args.spinup,
                                    horizon=args.horizon,
                                    renorm_interval=args.renorm,
                                    h=args.step)
    print(f"lambda={lam:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="paratime",
        description="Parallel-in-time integration experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one configuration")
    _add_config_args(p, "solve")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="run a scaling study, emit CSV")
    p.add_argument("--config", help="sweep YAML config")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--mode", choices=("strong", "weak", "time"))
    p.add_argument("--N-list", dest="N_list", type=floats,
                   help="comma-separated chunk counts (strong, weak)")
    p.add_argument("--T-list", dest="T_list", type=floats,
                   help="comma-separated horizons (time)")
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bounds", help="contraction factor report")
    _add_config_args(p, "bounds")
    p.add_argument("--K", type=int, default=3, help="iteration budget for R")
    p.add_argument("--q", type=float, default=1.0, help="convergence order")
    p.add_argument("--out", help="also write a one-row CSV")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("lyapunov", help="leading exponent via tangent growth")
    _add_config_args(p, "lyapunov")
    p.add_argument("--spinup", type=float, default=20.0)
    p.add_argument("--horizon", type=float, default=400.0)
    p.add_argument("--renorm", type=float, default=1.0)
    p.add_argument("--step", type=float, default=5e-3)
    p.set_defaults(func=_cmd_lyapunov)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
