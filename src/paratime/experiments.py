"""Experiment orchestration: single runs, scaling sweeps, plot data.

Sweeps write one CSV row per (criterion, grid point), in declared order,
with all floating-point values printed to 6 significant digits.  Outputs
contain no timing or environment data, so re-running a sweep reproduces the
file byte for byte.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import engine, metrics
from .config import SolveConfig, SweepConfig
from .engine import RunReport, TrajectoryVec
from .errors import BlowUpError, ConfigError, StepFailureError
from .integrators import Propagator, get_tableau, propagate
from .metrics import BasinGrid, MetricsReport

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
    cfg.validate()
    system = cfg.resolve_system()
    u0 = cfg.resolve_u0(system)
    grid = cfg.resolve_grid()
    fine, coarse = cfg.resolve_propagators(grid)
    criterion = cfg.resolve_criterion()

    report = engine.parareal_solve(system, grid, fine, coarse, criterion, u0,
                                   store_iterates=cfg.snapshots)
    if reference is None:
        reference = engine.fine_serial_reference(fine, system, grid, u0)
    report.fine_reference = reference

    w1 = metrics.trajectory_w1(report.solution, reference, mode=cfg.w1_mode)
    err = float(np.linalg.norm(report.solution.states - reference.states))
    lip = report.lipschitz_history[-1] if report.lipschitz_history else float("nan")
    met = MetricsReport(K=report.K,
                        S=metrics.speedup_model(grid.N, report.K, grid.xi),
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
    """

    def __init__(self, system, fine_tableau, h, u0, grids):
        milestones = {0}
        for grid in grids:
            steps_per_chunk = grid.L * grid.xi
            milestones.update(n * steps_per_chunk for n in range(grid.N + 1))
        self.steps = np.array(sorted(milestones))
        self.states = np.empty((self.steps.size, np.size(u0)))
        state = self.states[0] = np.asarray(u0, dtype=float)
        for i in range(1, self.steps.size):
            start, target = self.steps[i - 1], self.steps[i]
            prop = Propagator(tableau=fine_tableau, step=h,
                              steps_per_call=int(target - start))
            state = self.states[i] = propagate(prop, system, int(start) * h,
                                               state)

    @property
    def snapshots(self) -> Dict[int, np.ndarray]:
        """The walk's states by step count (read-only views)."""
        states = self.states.view()
        states.setflags(write=False)
        return dict(zip(self.steps.tolist(), states))

    def trajectory(self, grid) -> TrajectoryVec:
        wanted = np.arange(grid.N + 1) * (grid.L * grid.xi)
        rows = np.searchsorted(self.steps, wanted)
        if not np.array_equal(self.steps.take(rows, mode="clip"), wanted):
            raise KeyError(f"reference walk has no snapshot for grid {grid}")
        return TrajectoryVec(self.states[rows])


def run_sweep(sweep: SweepConfig, out_path: str) -> str:
    """Run every row of a sweep and write the CSV; returns the path.

    A row that fails numerically is recorded with ``converged=false`` and the
    error message in the last column; the sweep continues.
    """
    sweep.validate()
    rows = list(sweep.rows())

    base = sweep.base
    system = base.resolve_system()
    u0 = base.resolve_u0(system)
    ref_cache = _ReferenceCache(system, get_tableau(base.fine),
                                _common_h(rows), u0,
                                [cfg.resolve_grid() for cfg, _, _ in rows])

    records = []
    for cfg, check, weight in rows:
        grid = cfg.resolve_grid()
        rec = {"check": check, "weight": weight, "N": grid.N, "T": grid.T,
               "dT": grid.dT, "xi": grid.xi, "h": grid.h, "eps": cfg.eps,
               "error": ""}
        try:
            reference = ref_cache.trajectory(grid)
            report, met = run_single(cfg, reference=reference)
            rec.update(K=report.K, converged=report.converged, S=met.S,
                       serial_work=met.serial_work,
                       w1=met.w1 if sweep.compute_w1 else float("nan"),
                       error_l2=met.error_l2 if sweep.compute_error else float("nan"),
                       lipschitz_final=(report.lipschitz_history[-1]
                                        if report.lipschitz_history
                                        else float("nan")))
        except (BlowUpError, StepFailureError) as exc:
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


def _common_h(rows) -> float:
    hs = {cfg.resolve_grid().h for cfg, _, _ in rows}
    if len(hs) != 1:
        raise ConfigError("sweep rows must share a single fine step h")
    return hs.pop()


def read_sweep_csv(path_or_text: str) -> List[dict]:
    """Parse a sweep CSV back into typed records."""
    if "\n" in path_or_text:
        fh = io.StringIO(path_or_text)
    else:
        fh = open(path_or_text)
    with fh:
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


def emit_plotdata(csv_path: str, kind: str, out_dir: str) -> List[str]:
    """Write whitespace-separated series files for external plotting.

    ``K_vs_T`` and ``serial_work`` emit one file per (check, weight) series
    from a sweep CSV; ``basin`` re-emits a basin matrix file after a
    round-trip through the loader (validating the format).
    """
    os.makedirs(out_dir, exist_ok=True)
    if kind == "basin":
        grid = read_basin(csv_path)
        out = os.path.join(out_dir, "basin.dat")
        write_basin(grid, out)
        return [out]
    if kind not in ("K_vs_T", "serial_work"):
        raise ConfigError(f"emit_plotdata: unknown kind {kind!r}")
    records = read_sweep_csv(csv_path)
    required = {"K_vs_T": "K", "serial_work": "serial_work"}[kind]
    series: Dict[Tuple[str, str], List[dict]] = {}
    for rec in records:
        series.setdefault((rec["check"], rec["weight"]), []).append(rec)
    written = []
    for (check, weight), recs in series.items():
        path = os.path.join(out_dir, f"{kind}_{check}_{weight}.dat")
        with open(path, "w") as fh:
            fh.write(f"# {kind} series for check={check} weight={weight}\n")
            fh.write("# N T dT K value\n")
            for rec in recs:
                fh.write(f"{rec['N']} {_fmt(rec['T'])} {_fmt(rec['dT'])} "
                         f"{rec['K']} {_fmt(float(rec[required]))}\n")
        written.append(path)
    return written


def write_basin(grid: BasinGrid, path: str) -> None:
    """Dense text matrix with an axis-spec header (gnuplot-compatible)."""
    with open(path, "w") as fh:
        fh.write(f"# basin residual scan: coords ({grid.coord_i}, {grid.coord_j})\n")
        fh.write(f"# coord_i {grid.coord_i} range {_fmt(float(grid.x_values[0]))} "
                 f"{_fmt(float(grid.x_values[-1]))} n {grid.x_values.size}\n")
        fh.write(f"# coord_j {grid.coord_j} range {_fmt(float(grid.y_values[0]))} "
                 f"{_fmt(float(grid.y_values[-1]))} n {grid.y_values.size}\n")
        fh.write("# center " + " ".join(_fmt(float(v)) for v in grid.center) + "\n")
        for row in grid.values:
            fh.write(" ".join(_fmt(float(v)) for v in row) + "\n")


def read_basin(path: str) -> BasinGrid:
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(header) < 4:
        raise ConfigError(f"basin file {path!r}: missing header")
    spec_i = header[1].split()
    spec_j = header[2].split()
    coord_i, lo_i, hi_i, n_i = (int(spec_i[2]), float(spec_i[4]),
                                float(spec_i[5]), int(spec_i[7]))
    coord_j, lo_j, hi_j, n_j = (int(spec_j[2]), float(spec_j[4]),
                                float(spec_j[5]), int(spec_j[7]))
    center = np.array([float(v) for v in header[3].split()[2:]])
    values = np.array([[float(v) for v in ln.split()] for ln in data])
    if values.shape != (n_i, n_j):
        raise ConfigError(f"basin file {path!r}: matrix shape {values.shape} "
                          f"does not match header ({n_i}, {n_j})")
    return BasinGrid(coord_i=coord_i, coord_j=coord_j,
                     x_values=np.linspace(lo_i, hi_i, n_i),
                     y_values=np.linspace(lo_j, hi_j, n_j),
                     values=values, center=center)
