"""Command-line interface.

Subcommands: ``solve`` (one run), ``sweep`` (scaling study), ``bounds``
(contraction report), ``basin`` (residual grid), ``lyapunov`` (exponent
estimate), ``plotdata`` (series files from a sweep CSV).  Exit codes:
0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

from . import _kernel
from . import bounds as bounds_mod
from . import engine, experiments, integrators, metrics
from .config import SolveConfig, SweepConfig, load_sweep_config, read_config_file
from .errors import BlowUpError, ConfigError, StepFailureError
from .presets import PRESETS


def _parse_floats(text):
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _solve_overrides(args):
    over = {"system": args.system, "T": args.T, "N": args.N, "xi": args.xi,
            "h": args.h, "L": args.L, "eps": args.eps, "check": args.check,
            "weight": args.weight, "lam": args.lam, "fine": args.fine,
            "coarse": args.coarse}
    if args.u0:
        over["u0"] = _parse_floats(args.u0)
    return over


def _add_solve_args(p):
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named built-in configuration")
    p.add_argument("--system", help="logistic | lorenz63 | lorenz96")
    p.add_argument("--u0", help="comma-separated initial state")
    p.add_argument("--fine", help="fine tableau name")
    p.add_argument("--coarse", help="coarse tableau name")
    p.add_argument("--T", type=float)
    p.add_argument("--N", type=int)
    p.add_argument("--xi", type=int)
    p.add_argument("--h", type=float)
    p.add_argument("--L", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--check", help="standard | psi")
    p.add_argument("--weight", help="unit | lyapunov | lipschitz")
    p.add_argument("--lam", type=float, help="Lyapunov exponent for weight=lyapunov")


def _solve_config(args) -> SolveConfig:
    """The preset or config file, overridden by the flags; not validated."""
    if args.preset:
        base = PRESETS[args.preset]
        if not isinstance(base, SolveConfig):
            raise ConfigError(f"preset {args.preset!r} is a sweep preset")
        data = base.to_dict()
    elif args.config:
        data = read_config_file(args.config)
    else:
        data = {}
    data.update({k: v for k, v in _solve_overrides(args).items() if v is not None})
    return SolveConfig.from_dict(data)


def _build_solve_config(args) -> SolveConfig:
    cfg = _solve_config(args)
    cfg.validate()
    return cfg


def _cmd_solve(args) -> int:
    cfg = _build_solve_config(args)
    report, met = experiments.run_single(cfg)
    grid = cfg.resolve_grid()
    print(f"system={cfg.system} N={grid.N} T={grid.T:g} dT={grid.dT:g} "
          f"xi={grid.xi} h={grid.h:g}")
    print(f"check={cfg.check} weight={cfg.weight} eps={cfg.eps:g}")
    print(f"K={report.K} converged={str(report.converged).lower()} "
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


def _cmd_sweep(args) -> int:
    over = {}
    if args.mode:
        over["mode"] = args.mode
    if args.N_list:
        over["N_list"] = [int(v) for v in _parse_floats(args.N_list)]
    if args.T_list:
        over["T_list"] = _parse_floats(args.T_list)
    if args.preset:
        base = PRESETS[args.preset]
        if not isinstance(base, SweepConfig):
            raise ConfigError(f"preset {args.preset!r} is not a sweep preset")
        data = base.to_dict()
        data.update(over)
        sweep = SweepConfig.from_dict(data)
        sweep.validate()
    elif args.config:
        sweep = load_sweep_config(args.config, over)
    else:
        raise ConfigError("sweep needs --config or --preset")
    text = experiments.run_sweep(sweep, args.out)
    if not args.out:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out}")
    return 0


def _cmd_bounds(args) -> int:
    cfg = _build_solve_config(args)
    system = cfg.resolve_system()
    u0 = cfg.resolve_u0(system)
    grid = cfg.resolve_grid()
    fine, coarse = cfg.resolve_propagators(grid)
    ref = engine.fine_serial_reference(fine, system, grid, u0)
    cb = bounds_mod.beta_bound(fine, coarse, system, grid,
                               grid.interface_times, ref.states)
    budget = bounds_mod.ball_budget(r=cfg.eps, beta=cb.beta, K=args.K, q=args.q)

    rows = [("beta", cb.beta), ("transport", cb.transport),
            ("source_empirical", cb.source), ("source_theoretical",
                                              cb.source_theoretical),
            ("g_norm_sup", cb.g_norm_sup), ("mu", cb.mu), ("nu", cb.nu),
            ("C1", cb.C1), ("C2", cb.C2), ("C3", cb.C3), ("h_max", cb.h_max),
            ("h", grid.h), ("outer_radius_R", budget.R),
            ("inner_radius_r", budget.r), ("K_budget", budget.K)]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value:.6g}")
    if grid.h >= cb.h_max:
        print("warning: h exceeds the step-size ceiling h_max")
    if budget.slow:
        print("warning: beta >= 1, coarse solver must be nearly as accurate "
              "as the fine solver")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([name for name, _ in rows])
            writer.writerow([f"{value:.6g}" for _, value in rows])
        print(f"wrote {args.out}")
    return 0


def _cmd_basin(args) -> int:
    cfg = _build_solve_config(args)
    system = cfg.resolve_system()
    u0 = cfg.resolve_u0(system)
    grid = cfg.resolve_grid()
    fine, _ = cfg.resolve_propagators(grid)
    ranges = ((args.lo_i, args.hi_i), (args.lo_j, args.hi_j))
    bg = metrics.basin_scan(system, fine, u0, args.coord_i, args.coord_j,
                            ranges, args.resolution)
    experiments.write_basin(bg, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_lyapunov(args) -> int:
    # Only the system and its starting state matter here: the grid flags are
    # accepted with the other shared flags but neither resolved nor checked.
    cfg = _solve_config(args)
    system = cfg.resolve_system()
    u0 = cfg.resolve_u0(system)
    lam = metrics.lyapunov_estimate(system, u0, spinup=args.spinup,
                                    horizon=args.horizon,
                                    renorm_interval=args.renorm,
                                    h=args.step)
    print(f"lambda={lam:.6g}")
    return 0


def _cmd_plotdata(args) -> int:
    written = experiments.emit_plotdata(args.csv, args.kind, args.out_dir)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paratime",
        description="Parallel-in-time integration experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one configuration")
    _add_solve_args(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="run a scaling study, emit CSV")
    p.add_argument("--config", help="sweep YAML config")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--mode", choices=("strong", "weak", "time"))
    p.add_argument("--N-list", dest="N_list", help="comma-separated chunk counts")
    p.add_argument("--T-list", dest="T_list", help="comma-separated horizons")
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bounds", help="contraction factor report")
    _add_solve_args(p)
    p.add_argument("--K", type=int, default=3, help="iteration budget for R")
    p.add_argument("--q", type=float, default=1.0, help="convergence order")
    p.add_argument("--out", help="also write a one-row CSV")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("basin", help="residual grid around one fine image")
    _add_solve_args(p)
    p.add_argument("--coord-i", type=int, default=0)
    p.add_argument("--coord-j", type=int, default=1)
    p.add_argument("--lo-i", type=float, required=True)
    p.add_argument("--hi-i", type=float, required=True)
    p.add_argument("--lo-j", type=float, required=True)
    p.add_argument("--hi-j", type=float, required=True)
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_basin)

    p = sub.add_parser("lyapunov", help="leading exponent via tangent growth")
    _add_solve_args(p)
    p.add_argument("--spinup", type=float, default=20.0)
    p.add_argument("--horizon", type=float, default=400.0)
    p.add_argument("--renorm", type=float, default=1.0)
    p.add_argument("--step", type=float, default=5e-3)
    p.set_defaults(func=_cmd_lyapunov)

    p = sub.add_parser("plotdata", help="series files from a sweep CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--kind", required=True,
                   choices=("K_vs_T", "serial_work", "basin"))
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (BlowUpError, StepFailureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
