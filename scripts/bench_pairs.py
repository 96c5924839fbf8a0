"""Run the benchmark on a base commit and on this checkout in alternating
pairs, and write the per-metric summary as JSON.

    python3 scripts/bench_pairs.py --base HEAD~1 --pairs 10 --seed 23 \\
        --out BENCH_<n>.json

The base commit is exported with ``git archive`` into a temporary
directory; the change side is the working tree this script sits in.  Each
pair runs ``perfbench/run.py`` with its default run length and no tracing
once on each side, the side that goes first alternating from pair to pair.  For every workload, metric and
side the file holds the median and quartiles over the pairs, and the change's
wins, losses and ties against the base, "better" read from
``BENCHMARK.json``, and for each end-to-end metric a ``verdict`` against its
bound there (see :func:`verdict`).  It also records the seed, the CPU
count, the numpy version, the kernel path, each side's kernel build flags
(``kernel_flags``, read from that side's checkout), each side's line count
of its package modules (``src_lines``, see :func:`src_lines`) and every
run's metrics beside its round count (``rounds``: more rounds in a run of
fixed length can raise its peak RSS).  ``rss_fit`` holds, per workload and side, the
least-squares line of ``peak_rss_mib`` against ``rounds`` (see
:func:`rss_fit`).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def quartiles(values) -> dict:
    """Median and quartiles (inclusive method) of a list of numbers."""
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def verdict(base, change, sign: float, bound: float, wins: int) -> str:
    """How the change's runs compare with the base's on one metric.

    ``sign`` is 1 when lower is better and -1 when higher is; ``bound`` is
    the relative worsening the benchmark allows.  In this order:

    - ``gain``: the change won at least 9/10 of the pairs, and its median is
      better by more than the base's interquartile range;
    - ``worse``: its median is worse by more than ``bound`` of the base's;
    - ``unresolved``: the base's interquartile range is wider than the bound,
      and not every change run reads better than every base run;
    - ``within``: none of these.
    """
    b, c = quartiles(base), quartiles(change)
    iqr = b["q3"] - b["q1"]
    gap = sign * (b["median"] - c["median"])  # > 0: the change is better
    allowed = bound * abs(b["median"])
    if wins >= 0.9 * len(base) and gap > iqr:
        return "gain"
    if -gap > allowed:
        return "worse"
    if iqr > allowed and not max(sign * v for v in change) < min(
            sign * v for v in base):
        return "unresolved"
    return "within"


def summarize(pairs, better: dict, bounds: dict | None = None) -> dict:
    """Per metric: each side's median and quartiles, and the change's wins.

    ``pairs`` holds ``(base, change)`` result objects, each the JSON line
    ``perfbench/run.py`` prints last; ``better`` maps a metric name to
    ``"lower"`` or ``"higher"``.  A win is a pair in which the change reads
    better than the base; equal values count as ties.  A metric named in
    ``bounds`` (end-to-end metric name to its relative bound) also gets a
    ``verdict``.
    """
    out = {"pairs": len(pairs),
           "correct": {side: sum(bool(p[i]["correct"]) for p in pairs)
                       for i, side in enumerate(SIDES)},
           "failed": {side: sum(p[i]["failed"] for p in pairs)
                      for i, side in enumerate(SIDES)},
           "metrics": {}}
    names = [n for n in pairs[0][0]["metrics"] if n in pairs[0][1]["metrics"]]
    for name in names:
        base = [p[0]["metrics"][name]["value"] for p in pairs]
        change = [p[1]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        entry = {"unit": pairs[0][0]["metrics"][name]["unit"],
                 "base": quartiles(base), "change": quartiles(change),
                 "wins": sum(sign * (c - b) < 0 for b, c in zip(base, change)),
                 "losses": sum(sign * (c - b) > 0
                               for b, c in zip(base, change))}
        entry["ties"] = len(pairs) - entry["wins"] - entry["losses"]
        b = entry["base"]
        entry["ratio"] = (entry["change"]["median"] / b["median"]
                          if b["median"] else None)
        if name in (bounds or {}):
            entry["verdict"] = verdict(base, change, sign, bounds[name],
                                       entry["wins"])
        out["metrics"][name] = entry
    return out


def rss_fit(runs) -> dict:
    """Per side, the least-squares line of ``peak_rss_mib`` against
    ``rounds`` over a workload's runs (``{side: {"rounds": ...,
    "peak_rss_mib": ...}}`` each, as under ``runs`` in the output).

    The intercept (MiB) is the program's memory and the slope (KiB per
    round) what the benchmark keeps per round; a side whose runs do not
    span two round counts gets None.
    """
    out = {}
    for side in SIDES:
        points = [(run[side]["rounds"], run[side]["peak_rss_mib"])
                  for run in runs if run[side].get("rounds") is not None
                  and "peak_rss_mib" in run[side]]
        if len({x for x, _ in points}) < 2:
            out[side] = None
            continue
        slope, intercept = statistics.linear_regression(*zip(*points))
        out[side] = {"intercept_mib": intercept,
                     "slope_kib_per_round": slope * 1024.0,
                     "runs": len(points)}
    return out


def rounds(stdout: str) -> int | None:
    """The ``rounds=`` count of the ``# workload=`` line that
    ``perfbench/run.py`` prints; None when there is no such line."""
    found = re.search(r"^# workload=.* rounds=(\d+)", stdout, re.MULTILINE)
    return int(found.group(1)) if found else None


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``checkout``: its last JSON line, and its round
    count under ``rounds``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed)],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["rounds"] = rounds(done.stdout)
    return result


def export(rev: str, folder: Path) -> None:
    """The files of commit ``rev`` of this repository, written to ``folder``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(folder)], input=archive, check=True)


def kernel_flags(checkout: Path) -> str | None:
    """The compiler flags, ``_kernel.FLAGS``, with which the package in
    ``checkout`` builds its kernel; None when it cannot be imported."""
    done = subprocess.run(
        [sys.executable, "-c",
         "from paratime._kernel import FLAGS; print(' '.join(FLAGS))"],
        cwd=checkout, env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def src_lines(checkout: Path) -> int:
    """Lines of the package's modules in ``checkout``: the newlines in
    ``src/paratime/*.py``, as ``cat src/paratime/*.py | wc -l`` counts."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "paratime").glob("*.py"))


def environment() -> dict:
    import numpy

    sys.path.insert(0, str(ROOT / "src"))
    from paratime.integrators import kernel_path
    from paratime._kernel import cpu_count

    return {"nproc": os.cpu_count(), "affinity_cpus": cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "kernel_path": kernel_path()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", default="HEAD~1", help="commit to compare with")
    p.add_argument("--workload", action="append",
                   help="workload name; repeat for several (default: all)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    base = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT,
                          capture_output=True, text=True,
                          check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp)
        export(base, base_dir)
        checkouts = {"base": base_dir, "change": ROOT}
        result = {"base": base, "seed": args.seed, **environment(),
                  "kernel_flags": {side: kernel_flags(checkouts[side])
                                   for side in SIDES},
                  "src_lines": {side: src_lines(checkouts[side])
                                for side in SIDES},
                  "workloads": {}, "runs": {}, "rss_fit": {}}
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                got = {side: run_once(checkouts[side], workload, args.seed)
                       for side in order}
                pairs.append((got["base"], got["change"]))
                wall = {s: got[s]["metrics"].get("wall_s", {}).get("value")
                        for s in SIDES}
                print(f"{workload} pair {i + 1}/{args.pairs} ({order[0]} "
                      f"first): wall_s base {wall['base']} change "
                      f"{wall['change']}", flush=True)
            result["workloads"][workload] = summarize(pairs, better, bounds)
            result["runs"][workload] = [
                {side: {"rounds": p[j]["rounds"],
                        **{k: v["value"] for k, v in p[j]["metrics"].items()}}
                 for j, side in enumerate(SIDES)} for p in pairs]
            result["rss_fit"][workload] = rss_fit(result["runs"][workload])
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
