import importlib.util
import json
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


def test_summary_gives_each_sides_rounds(bench_pairs):
    pairs = []
    for base, change in ((100, 110), (90, 120), (95, None), (105, 130)):
        pair = (line(1.0, 40.0), line(1.0, 40.0))
        pair[0]["rounds"] = base
        if change is not None:
            pair[1]["rounds"] = change
        pairs.append(pair)
    got = bench_pairs.summarize(pairs, {"wall_s": "lower"})
    assert got["rounds"]["base"] == pytest.approx(
        {"median": 97.5, "q1": 93.75, "q3": 101.25})
    # a run with no round count is left out
    assert got["rounds"]["change"] == pytest.approx(
        {"median": 120, "q1": 115, "q3": 125})
    assert "rounds" not in got["metrics"]
    assert bench_pairs.summarize(pairs[:1], {})["rounds"]["change"] == {
        "median": 110, "q1": 110, "q3": 110}
    for pair in pairs:
        pair[0].pop("rounds")
    assert bench_pairs.summarize(pairs, {})["rounds"]["base"] is None


def test_summary_reads_higher_is_better(bench_pairs):
    pairs = [(line(1.0, 1.0), line(2.0, 1.0))]
    got = bench_pairs.summarize(pairs, {"wall_s": "higher"})
    wall = got["metrics"]["wall_s"]
    assert (wall["wins"], wall["losses"]) == (1, 0)
    assert wall["base"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}


def test_rounds_read_from_the_workload_line(bench_pairs):
    stdout = ("# nproc=2 python=3.11.7 numpy=2.4.6 OMP_NUM_THREADS=1\n"
              "# workload=l63-horizon-sweep seed=0 rounds=12 untraced + 0 "
              "traced, attempted=24 failed=0\n"
              "# round wall_s: 0.4210 0.4190\n"
              '{"correct": true, "attempted": 24, "failed": 0, "metrics": {}}\n')
    assert bench_pairs.rounds(stdout) == 12
    assert bench_pairs.rounds("# round wall_s: 0.42 rounds=3\n") is None


def test_kernel_flags_read_from_each_checkout(bench_pairs, tmp_path):
    from paratime import _kernel

    assert bench_pairs.kernel_flags(bench_pairs.ROOT) == " ".join(_kernel.FLAGS)
    package = tmp_path / "src" / "paratime"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "_kernel.py").write_text('FLAGS = ("-O1", "-shared")\n')
    assert bench_pairs.kernel_flags(tmp_path) == "-O1 -shared"
    (package / "_kernel.py").unlink()
    assert bench_pairs.kernel_flags(tmp_path) is None


def test_src_lines_counted_in_each_checkout(bench_pairs, tmp_path):
    """As ``cat src/paratime/*.py | wc -l``: newlines in the package's
    modules only, a last line without one not counted; the kernel source
    counted on its own, 0 where a checkout has none."""
    for name, files, want, want_c in (
            ("base", {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"}, 3, 0),
            ("change", {"a.py": "x = 1\n", "b.py": "z = 3", "c.txt": "\n\n",
                        "_kernel.c": "int f;\n\nint g;\n"}, 1, 3)):
        package = tmp_path / name / "src" / "paratime"
        package.mkdir(parents=True)
        for file, text in files.items():
            (package / file).write_text(text)
        assert bench_pairs.src_lines(tmp_path / name) == want
        assert bench_pairs.src_lines(tmp_path / name, "_kernel.c") == want_c


@pytest.mark.parametrize("base, change, want", [
    # 10/10 won, and the median gap (0.3) exceeds the base IQR (0.035)
    ([1.0, 1.02, 0.98, 1.05, 0.95, 1.01, 0.99, 1.03, 0.97, 1.0],
     [0.7, 0.72, 0.68, 0.75, 0.65, 0.71, 0.69, 0.73, 0.67, 0.7], "gain"),
    # 9/10 won but the gap (0.015) is inside the base IQR (0.035)
    ([1.0, 1.02, 0.98, 1.05, 0.95, 1.01, 0.99, 1.03, 0.97, 1.0],
     [0.98, 1.0, 0.96, 1.03, 0.93, 0.99, 0.97, 1.01, 0.95, 1.01], "within"),
    # the median is 30% worse against a 24% bound
    ([1.0] * 10, [1.3] * 10, "worse"),
    # 20% worse: inside the bound, and the base's spread is tight
    ([1.0, 1.01] * 5, [1.2, 1.21] * 5, "within"),
    # the base's IQR (1.5) is wider than the bound (0.36) and the runs overlap
    ([1.0] * 3 + [1.5] * 4 + [3.0] * 3, [1.2] * 3 + [1.6] * 4 + [2.9] * 3,
     "unresolved"),
    # as wide, but every change run reads better than every base run
    ([1.0] * 3 + [1.5] * 4 + [3.0] * 3, [0.99] * 10, "within"),
], ids=["gain", "small-gap", "worse", "inside-bound", "unresolved",
        "wide-but-all-better"])
def test_verdict_on_canned_pairs(bench_pairs, base, change, want):
    pairs = [(line(b, 40.0), line(c, 40.0)) for b, c in zip(base, change)]
    got = bench_pairs.summarize(pairs, {"wall_s": "lower"}, {"wall_s": 0.24})
    assert got["metrics"]["wall_s"]["verdict"] == want
    assert "verdict" not in got["metrics"]["peak_rss_mib"]  # no bound given


def test_verdict_reads_higher_is_better(bench_pairs):
    base, change = [1.0] * 10, [0.7] * 10  # 30% lower where higher is better
    assert bench_pairs.verdict(base, change, -1.0, 0.24, 0) == "worse"
    assert bench_pairs.verdict(change, base, -1.0, 0.24, 10) == "gain"


def test_rss_fit_against_rounds_on_canned_runs(bench_pairs):
    # base: 40 MiB plus 48 KiB per round; change: 38 MiB plus 24 KiB
    runs = [{"base": {"rounds": r, "peak_rss_mib": 40.0 + 48 * r / 1024},
             "change": {"rounds": r + 2, "peak_rss_mib": 38.0
                        + 24 * (r + 2) / 1024}} for r in (50, 60, 75, 90)]
    got = bench_pairs.rss_fit(runs)
    assert got["base"] == {"intercept_mib": pytest.approx(40.0),
                           "slope_kib_per_round": pytest.approx(48.0),
                           "runs": 4}
    assert got["change"]["intercept_mib"] == pytest.approx(38.0)
    assert got["change"]["slope_kib_per_round"] == pytest.approx(24.0)
    # one round count, or none recorded, leaves the slope undefined
    flat = [{"base": {"rounds": 7, "peak_rss_mib": v},
             "change": {"rounds": None, "peak_rss_mib": v}}
            for v in (40.0, 41.0)]
    assert bench_pairs.rss_fit(flat) == {"base": None, "change": None}


def test_a_run_that_exits_non_zero_is_kept_and_counted(bench_pairs, tmp_path,
                                                       monkeypatch):
    """A failing run gives its exit code and last stderr line; the script
    keeps it under ``runs``, counts it for its side, summarizes the pairs
    that finished and goes on."""
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(
        "import sys\nprint('Traceback')\nsys.exit('MemoryError: at round 3')\n")
    assert bench_pairs.run_once(checkout, "w", 0) == {
        "exit": 1, "stderr": "MemoryError: at round 3"}

    calls = []

    def run_once(checkout, workload, seed):
        calls.append(checkout)
        if len(calls) == 3:  # pair 2, its first run
            return {"exit": 1, "stderr": "MemoryError: at round 3"}
        result = line(1.0, 40.0)
        result["rounds"] = 10
        return result

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "rev_parse", lambda rev: "0" * 40)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, folder: None)
    monkeypatch.setattr(bench_pairs, "kernel_flags", lambda checkout: None)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--workload", "w", "--pairs",
                             "3", "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    assert len(calls) == 6
    runs = got["runs"]["w"]
    assert len(runs) == 3
    # pair 2 runs the change first
    assert runs[1]["change"] == {"exit": 1,
                                 "stderr": "MemoryError: at round 3"}
    assert runs[1]["base"] == {"rounds": 10, "wall_s": 1.0,
                               "peak_rss_mib": 40.0}
    summary = got["workloads"]["w"]
    assert summary["errored"] == {"base": 0, "change": 1}
    assert summary["pairs"] == 2
