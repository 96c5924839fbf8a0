import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(wall, rss, correct=True, failed=0):
    """A result line as ``perfbench/run.py`` prints it last."""
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mib": {"value": rss, "unit": "MiB"}}}


def test_summary_medians_quartiles_and_wins(bench_pairs):
    pairs = [(line(1.0, 40.0), line(0.7, 40.0)),
             (line(1.2, 40.0), line(0.8, 41.0)),
             (line(0.9, 40.0), line(0.9, 39.0)),
             (line(1.1, 40.0, failed=1), line(0.6, 40.0, correct=False))]
    got = bench_pairs.summarize(pairs, {"wall_s": "lower",
                                        "peak_rss_mib": "lower"})
    assert got["pairs"] == 4
    assert got["correct"] == {"base": 4, "change": 3}
    assert got["failed"] == {"base": 1, "change": 0}
    wall = got["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    assert wall["base"] == pytest.approx({"median": 1.05, "q1": 0.975,
                                          "q3": 1.125})
    assert wall["change"] == pytest.approx({"median": 0.75, "q1": 0.675,
                                            "q3": 0.825})
    assert (wall["wins"], wall["losses"], wall["ties"]) == (3, 0, 1)
    assert wall["ratio"] == pytest.approx(0.75 / 1.05)
    rss = got["metrics"]["peak_rss_mib"]
    assert (rss["wins"], rss["losses"], rss["ties"]) == (1, 1, 2)


def test_summary_reads_higher_is_better(bench_pairs):
    pairs = [(line(1.0, 1.0), line(2.0, 1.0))]
    got = bench_pairs.summarize(pairs, {"wall_s": "higher"})
    wall = got["metrics"]["wall_s"]
    assert (wall["wins"], wall["losses"]) == (1, 0)
    assert wall["base"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
