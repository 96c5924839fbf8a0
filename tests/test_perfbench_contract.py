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

import pytest

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
