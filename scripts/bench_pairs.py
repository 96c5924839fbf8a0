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
``BENCHMARK.json``.  It also records the seed, the CPU count, the numpy
version and the kernel path, and every run's metrics.
"""

from __future__ import annotations

import argparse
import json
import os
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


def summarize(pairs, better: dict) -> dict:
    """Per metric: each side's median and quartiles, and the change's wins.

    ``pairs`` holds ``(base, change)`` result objects, each the JSON line
    ``perfbench/run.py`` prints last; ``better`` maps a metric name to
    ``"lower"`` or ``"higher"``.  A win is a pair in which the change reads
    better than the base; equal values count as ties.
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
        out["metrics"][name] = entry
    return out


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``checkout``; its last JSON line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def export(rev: str, folder: Path) -> None:
    """The files of commit ``rev`` of this repository, written to ``folder``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(folder)], input=archive, check=True)


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
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    base = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT,
                          capture_output=True, text=True,
                          check=True).stdout.strip()
    result = {"base": base, "seed": args.seed,
              **environment(), "workloads": {}, "runs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp)
        export(base, base_dir)
        checkouts = {"base": base_dir, "change": ROOT}
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
            result["workloads"][workload] = summarize(pairs, better)
            result["runs"][workload] = [
                {side: {k: v["value"] for k, v in p[j]["metrics"].items()}
                 for j, side in enumerate(SIDES)} for p in pairs]
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
