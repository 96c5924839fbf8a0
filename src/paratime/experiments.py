"""Experiment orchestration: single runs and scaling sweeps.

Sweeps write one CSV row per (criterion, grid point), in declared order,
with all floating-point values printed to 6 significant digits.  Outputs
contain no timing or environment data, so re-running a sweep reproduces the
file byte for byte.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Optional, Tuple

import numpy as np

from . import engine, metrics
from .config import SolveConfig, SweepConfig
from .engine import RunReport, TrajectoryVec
from .errors import NumericalFailure
from .integrators import _walk, get_tableau
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
    counts, yields states bit-identical to any per-row serial sweep; it is
    ``integrators._walk``.  Only the ``(M, d)`` states and their ``(M,)``
    step counts are kept.

    A walk that fails numerically keeps the states before the failure, and
    ``failure`` is ``(step count the failed stretch starts at, error)``;
    ``trajectory`` raises it, naming the chunk, for a grid that reaches past.
    """

    def __init__(self, system, fine_tableau, h, u0, grids):
        # A set, not np.unique: that imports numpy.ma, about 1 MiB of RSS.
        self.steps = np.array(sorted(
            {0} | {n * g.L * g.xi for g in grids for n in range(g.N + 1)}))
        self.states, exc = _walk(fine_tableau, system, h, u0, self.steps)
        self.steps = self.steps[:len(self.states)]
        self.failure = None if exc is None else (int(self.steps[-1]), exc)

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
