"""The benchmark's workloads: set-up from a seed, one round, output checks.

Each workload runs reduced grids of a shipped preset, so that one round takes
1 to 5 s instead of minutes: a run then holds many rounds, and the median
over them shrugs off the stretches of some seconds in which the shared
machine runs slower or faster.
The seed picks the start state: the preset's state plus a seeded Gaussian
perturbation of size ``SEED_SCALE`` per coordinate.  The package sees only
the resulting ``u0``.
"""

from __future__ import annotations

import numpy as np

import checks
from paratime import bounds, experiments, presets
from paratime.config import SolveConfig, SweepConfig
from paratime.errors import ParatimeError

DEFAULT_SEED = 0
SEED_SCALE = 1e-6


def perturbed(state, seed: int) -> list:
    u = np.asarray(state, dtype=float)
    return list(u + SEED_SCALE * np.random.default_rng(seed).standard_normal(u.shape))


def _resolve(cfg: SolveConfig) -> None:
    """Build and validate everything one run needs, as the set-up cost."""
    cfg.validate()
    system = cfg.resolve_system()
    cfg.resolve_u0(system)
    cfg.resolve_propagators(cfg.resolve_grid())
    cfg.resolve_criterion()


class SweepWorkload:
    """A sweep preset with a reduced grid list; one round is one ``run_sweep``."""

    def __init__(self, sweep: SweepConfig, seed: int):
        sweep.base.u0 = perturbed(sweep.base.u0, seed)
        sweep.validate()
        self.sweep = sweep
        self.rows = [cfg for cfg, _, _ in sweep.rows()]
        for cfg in self.rows:
            _resolve(cfg)
        self.ops_per_round = len(self.rows)

    def round(self) -> dict:
        return {"csv": experiments.run_sweep(self.sweep, "")}

    def tally(self, out: dict) -> tuple:
        """(sum of K over the solves that ran, failed operations)."""
        rows = checks.parse_sweep_csv(out["csv"])
        return (sum(int(r["K"]) for r in rows if not r["error"]),
                checks.failed_rows(rows))

    def check(self, outs: list, walks: list) -> list:
        failures = checks.check_sweep_rows(checks.parse_sweep_csv(outs[0]["csv"]),
                                           self.ops_per_round)
        failures += checks.check_identical([o["csv"] for o in outs], "sweep CSV")
        return failures + self.check_walk(walks[0])


class HorizonSweep(SweepWorkload):
    """Lorenz-63 horizon doubling at fixed N=64, xi=10, cut to T = 6.4, 12.8.

    Standard K at T >= 16 swings with the seed (4 to 14 at T=16), which
    would spread the times across seeds; up to T=12.8 it does not."""

    name = "l63-horizon-sweep"
    walk_check_T = 12.8

    def __init__(self, seed: int):
        sweep = presets.serial_work_sweep()
        sweep.T_list = [6.4, 12.8]
        super().__init__(sweep, seed)

    def check_walk(self, walk) -> list:
        base = self.sweep.base
        return checks.check_lorenz63_walk(
            walk.snapshots, base.u0, base.h, round(self.walk_check_T / base.h))


class LogisticStrongSweep(SweepWorkload):
    """Logistic strong scaling, implicit Euler on both levels, cut to T = 12.8,
    the shortest horizon on which every N up to 128 gives whole coarse steps."""

    name = "logistic-strong-sweep"

    def __init__(self, seed: int):
        sweep = presets.table_logistic("strong")
        sweep.base.T = 12.8
        sweep.N_list = [16, 32, 64, 128]
        super().__init__(sweep, seed)

    def check_walk(self, walk) -> list:
        base = self.sweep.base
        return checks.check_logistic_walk(walk.snapshots, base.u0[0], base.h)


class Lorenz96SolveBound:
    """One standard-check Lorenz-96 solve, then the contraction bound at the
    returned reference's interface states."""

    name = "l96-solve-bound"
    ops_per_round = 2  # the solve and the bound evaluation

    def __init__(self, seed: int):
        base = presets.lorenz96_base()
        self.cfg = SolveConfig(**{**base.to_dict(), "T": 19.2, "N": 64,
                                  "xi": 100, "h": 1e-3, "L": None,
                                  "u0": perturbed(base.u0, seed)})
        _resolve(self.cfg)
        self.grid = self.cfg.resolve_grid()
        self.fine, self.coarse = self.cfg.resolve_propagators(self.grid)

    def round(self) -> dict:
        try:
            report, _ = experiments.run_single(self.cfg)
        except ParatimeError as exc:
            return {"failed": 2, "error": str(exc)}
        # Resolved here so that a traced round sees its instrumented system.
        system = self.cfg.resolve_system()
        try:
            cb = bounds.beta_bound(self.fine, self.coarse, system, self.grid,
                                   self.grid.interface_times,
                                   report.fine_reference.states)
        except ParatimeError as exc:
            return {"failed": 1, "error": str(exc), "report": report}
        return {"failed": 0, "report": report, "bound": cb}

    def tally(self, out: dict) -> tuple:
        return (out["report"].K if "report" in out else 0), out["failed"]

    def check(self, outs: list, walks: list) -> list:
        done = [o for o in outs if not o["failed"]]
        if not done:
            return []
        report, cb = done[0]["report"], done[0]["bound"]
        sol = report.solution.states
        ref = report.fine_reference.states
        grid, eps = self.grid, self.cfg.eps
        failures = []
        if not 1 <= report.K <= grid.N:
            failures.append(f"K={report.K} outside 1..N={grid.N}")
        elif report.K < grid.N and not report.residual_history[-1] < eps:
            failures.append(f"stopped at K={report.K} with residual "
                            f"{report.residual_history[-1]:.3e} >= eps")
        failures += checks.check_k_exact(sol, ref, report.K)
        failures += checks.check_chunk_jumps(sol, grid.h, grid.L * grid.xi, eps,
                                             F=self.cfg.params.get("F", 8.0))
        failures += checks.check_beta(cb.beta, cb.transport, cb.source,
                                      cb.g_norm_sup, grid.N)
        failures += checks.check_identical(
            [o["report"].solution.states.tobytes() + np.float64(o["bound"].beta).tobytes()
             for o in done], "solution and beta")
        return failures


WORKLOADS = {w.name: w for w in (HorizonSweep, Lorenz96SolveBound,
                                  LogisticStrongSweep)}
