"""The benchmark harness still runs on this package.

``perfbench/instrument.py`` swaps module attributes (``engine.parareal_solve``,
``engine._fine_sweep_batched``, ``criteria.check``, ...), reads the
positional arguments and results of the sweeps, and reads ``.states`` from
the solution, the fine reference and the coarse guess.  A refactor that
breaks any of these fails a traced run or its output checks.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paratime import engine
from paratime.criteria import StopCriterion
from paratime.integrators import (RK4, GridSpec, coarse_propagator,
                                  fine_propagator)
from paratime.systems import make_lorenz63

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["l63-horizon-sweep", "l96-solve-bound",
                                      "logistic-strong-sweep"])
def test_traced_benchmark_round_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0


def test_a_solve_never_enters_the_timed_reference_walk(monkeypatch):
    """The benchmark times ``engine.fine_serial_reference`` as
    ``reference_s``; the coarse guess of a solve walks without it."""
    def refused(*args):
        raise AssertionError("a solve called engine.fine_serial_reference")

    monkeypatch.setattr(engine, "fine_serial_reference", refused)
    grid = GridSpec.make(T=0.8, N=8, xi=10, h=1e-3)
    report = engine.parareal_solve(
        make_lorenz63(), grid, fine_propagator(grid, RK4),
        coarse_propagator(grid, RK4), StopCriterion("standard", 1e-9),
        np.array([1.0, 1.0, 1.0]))
    assert 1 <= report.K <= grid.N
