"""Experiment orchestration: single runs and scaling sweeps.

Sweeps write one CSV row per (criterion, grid point), in declared order,
with all floating-point values printed to 6 significant digits.  Outputs
contain no timing or environment data, so re-running a sweep reproduces the
file byte for byte.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import engine, metrics
from .config import SolveConfig, SweepConfig
from .engine import RunReport, TrajectoryVec
from .errors import NumericalFailure
from .integrators import Propagator, get_tableau, propagate
from .metrics import MetricsReport

CSV_COLUMNS = ["check", "weight", "N", "T", "dT", "xi", "h", "eps", "K",
               "converged", "S", "serial_work", "w1", "error_l2",
               "lipschitz_final", "error"]


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        if np.isnan(x):
            return ""
        return f"{x:.6g}"
    return str(x)


def run_single(cfg: SolveConfig,
               reference: Optional[TrajectoryVec] = None
               ) -> Tuple[RunReport, MetricsReport]:
    """Execute one configured run and fill its metrics.

    ``reference`` short-circuits the serial fine solve when the caller
    already holds it (sweeps share one reference across rows).
    """
    system = cfg.resolve_system()
    u0 = cfg.resolve_u0(system)
    grid = cfg.resolve_grid()
    fine, coarse = cfg.resolve_propagators(grid)
    criterion = cfg.resolve_criterion()

    report = engine.parareal_solve(system, grid, fine, coarse, criterion, u0)
    if reference is None:
        reference = engine.fine_serial_reference(fine, system, grid, u0)
    report.fine_reference = reference

    w1 = metrics.trajectory_w1(report.solution, reference)
    err = float(np.linalg.norm(report.solution.states - reference.states))
    met = MetricsReport(S=metrics.speedup_model(grid.N, report.K, grid.xi),
                        serial_work=metrics.serial_work(report.K, grid.dT),
                        w1=w1, error_l2=err)
    return report, met


class _ReferenceCache:
    """One sequential fine walk serving every row of a sweep.

    All rows of a sweep share u0, the fine tableau and h; their interface
    times are integer multiples of h.  A single uniform walk to the largest
    horizon, keeping the state at the union of every row's interface step
    counts, yields states bit-identical to any per-row serial sweep.  Only
    the ``(M, d)`` states and their ``(M,)`` step counts are kept.

    A walk that fails numerically stops there and keeps the states before
    the failure; ``trajectory`` raises it, naming the chunk, for a grid that
    reaches past them.
    """

    def __init__(self, system, fine_tableau, h, u0, grids):
        milestones = {0}
        for grid in grids:
            steps_per_chunk = grid.L * grid.xi
            milestones.update(n * steps_per_chunk for n in range(grid.N + 1))
        self.steps = np.array(sorted(milestones))
        self.states = np.empty((self.steps.size, np.size(u0)))
        self.failure = None  # (step count the failed stretch starts at, error)
        state = self.states[0] = np.asarray(u0, dtype=float)
        for i in range(1, self.steps.size):
            start, target = self.steps[i - 1], self.steps[i]
            prop = Propagator(tableau=fine_tableau, step=h,
                              steps_per_call=int(target - start))
            try:
                state = self.states[i] = propagate(prop, system,
                                                   int(start) * h, state)
            except NumericalFailure as exc:
                self.failure = (int(start), exc)
                self.steps, self.states = self.steps[:i], self.states[:i]
                break

    @property
    def snapshots(self) -> Dict[int, np.ndarray]:
        """The walk's states by step count (read-only views)."""
        states = self.states.view()
        states.setflags(write=False)
        return dict(zip(self.steps.tolist(), states))

    def trajectory(self, grid) -> TrajectoryVec:
        steps_per_chunk = grid.L * grid.xi
        wanted = np.arange(grid.N + 1) * steps_per_chunk
        if self.failure is not None and wanted[-1] > self.steps[-1]:
            # Every interface of the grid is a milestone, so the failed
            # stretch lies inside one of its chunks.
            start, exc = self.failure
            n = start // steps_per_chunk + 1
            raise exc.in_chunk("fine reference", n,
                               start - (n - 1) * steps_per_chunk) from exc
        rows = np.searchsorted(self.steps, wanted)
        if not np.array_equal(self.steps.take(rows, mode="clip"), wanted):
            raise KeyError(f"reference walk has no snapshot for grid {grid}")
        return TrajectoryVec(self.states[rows])


def run_sweep(sweep: SweepConfig, out_path: str) -> str:
    """Run every row of a sweep, write the CSV to ``out_path`` if given and
    return its text.

    A row that fails numerically is recorded with ``converged=false`` and the
    error message in the last column; the sweep continues.
    """
    sweep.validate()
    rows = list(sweep.rows())

    base = sweep.base
    system = base.resolve_system()
    u0 = base.resolve_u0(system)
    # rows() gives every row the same h and derives its L: one walk serves all.
    grids = [cfg.resolve_grid() for cfg, _, _ in rows]
    ref_cache = _ReferenceCache(system, get_tableau(base.fine), grids[0].h, u0,
                                grids)

    records = []
    for (cfg, check, weight), grid in zip(rows, grids):
        rec = {"check": check, "weight": weight, "N": grid.N, "T": grid.T,
               "dT": grid.dT, "xi": grid.xi, "h": grid.h, "eps": cfg.eps,
               "error": ""}
        try:
            reference = ref_cache.trajectory(grid)
            report, met = run_single(cfg, reference=reference)
            rec.update(K=report.K, converged=True, S=met.S,
                       serial_work=met.serial_work,
                       w1=met.w1, error_l2=met.error_l2,
                       lipschitz_final=(report.lipschitz_history[-1]
                                        if report.lipschitz_history
                                        else float("nan")))
        except NumericalFailure as exc:
            rec.update(K=0, converged=False, S=float("nan"),
                       serial_work=float("nan"), w1=float("nan"),
                       error_l2=float("nan"), lipschitz_final=float("nan"),
                       error=str(exc).replace(",", ";"))
        records.append(rec)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([_fmt(rec[col]) for col in CSV_COLUMNS])
    data = buf.getvalue()
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(data)
    return data


def read_sweep_csv(path: str) -> List[dict]:
    """Parse a sweep CSV file back into typed records."""
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for r in rows:
        rec = dict(r)
        for key in ("N", "xi", "K"):
            rec[key] = int(r[key])
        for key in ("T", "dT", "h", "eps", "S", "serial_work", "w1",
                    "error_l2", "lipschitz_final"):
            rec[key] = float(r[key]) if r[key] not in ("", None) else float("nan")
        rec["converged"] = r["converged"] == "true"
        out.append(rec)
    return out

