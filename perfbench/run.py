"""Benchmark for paratime: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload l63-horizon-sweep --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The workload is repeated in whole rounds until ``--seconds`` have passed,
and each metric is the median over rounds.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds,
reports the per-layer metrics, and writes the spans to
``perfbench/out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# One compute thread, BLAS included, so that load and timings do not depend
# on the BLAS thread pool.  Set before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("l63-horizon-sweep", "l96-solve-bound", "logistic-strong-sweep")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "solve_s": "s",
                    "reference_s": "s", "iterations": "count",
                    "peak_rss_mib": "MiB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: import the package, set the workload up, print "ready", exit.
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import paratime from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "paratime" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'paratime'}; "
                 f"run from the root of a paratime checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import paratime
    if Path(paratime.__file__).resolve().parent != SRC / "paratime":
        sys.exit(f"perfbench: imported paratime from {paratime.__file__}, "
                 f"not from {SRC}")
    import workloads
    return workloads


def setup_probe(args) -> float:
    """Time from launching a fresh process to its set-up workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.communicate(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_rounds(workload, trace_mod, trace: bool, seconds: float,
               between=None) -> list:
    """Whole rounds until ``seconds`` have passed, at least two so that the
    output has a repeat to compare with; one record per round.  With
    ``trace`` the rounds alternate untraced and traced, so that drift in the
    machine's speed reaches both alike.  ``between`` is called after each
    round, outside its timing."""
    records = []
    start = perf_counter()
    while len(records) < 2 or perf_counter() - start < seconds:
        traced = trace and len(records) % 2 == 1
        with trace_mod.Instrument(traced) as inst:
            t0 = perf_counter()
            out = workload.round()
            wall = perf_counter() - t0
        records.append({"out": out, "inst": inst, "wall": wall, "traced": traced})
        if between is not None:
            between()
    return records


def end_to_end(workload, trace_mod, records) -> dict:
    """Medians over the untraced rounds."""
    def median(f):
        return statistics.median(f(r) for r in records)
    return {
        "wall_s": median(lambda r: r["wall"]),
        "solve_s": median(lambda r: r["inst"].span_total(("engine.parareal_solve",))),
        "reference_s": median(lambda r: r["inst"].span_total(trace_mod.REFERENCE_SPANS)),
        "iterations": workload.tally(records[0]["out"])[0],  # the same every round
    }


def per_layer(trace_mod, plain, traced) -> tuple:
    """Layer metrics from the traced rounds, and any count that did not repeat."""
    counts = traced[0]["inst"].counts_snapshot()
    problems = [f"traced round {i}: layer counts differ from round 0"
                for i, rec in enumerate(traced[1:], start=1)
                if rec["inst"].counts_snapshot() != counts]
    timings = [rec["inst"].timings() for rec in traced]
    out = dict(counts)
    for key in timings[0]:
        out[key] = statistics.median(t[key] for t in timings)
    out["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                               - statistics.median(r["wall"] for r in plain))
    return {k: out[k] for k in trace_mod.LAYER_UNITS}, problems


def write_spans(path: Path, records) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for i, rec in enumerate(records):
            inst = rec["inst"]
            t0 = inst.spans[0][3] if inst.spans else 0.0
            for sid, parent, name, start, end in inst.spans:
                fh.write(json.dumps({"round": i, "id": sid, "parent": parent,
                                     "name": name, "start": start - t0,
                                     "end": end - t0}) + "\n")
            fh.write(json.dumps({"round": i, "counts": inst.counts,
                                 "leaf_s": inst.leaf_s}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_package()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    import numpy
    import instrument as trace_mod

    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} "
          + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))

    # Set-up probes run between the first rounds rather than all before
    # them, so that they sample the machine's speed over the same stretch.
    setup_times = []

    def probe():
        if len(setup_times) < SETUP_REPEATS:
            setup_times.append(setup_probe(args))

    records = run_rounds(workload, trace_mod, bool(args.trace), args.seconds,
                         between=None if args.trace else probe)
    if not args.trace:
        while len(setup_times) < SETUP_REPEATS:
            probe()
    setup_s = statistics.median(setup_times) if setup_times else None
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    outs = [r["out"] for r in records]
    failures = workload.check(outs, [r["inst"].reference_cache for r in records])
    attempted = workload.ops_per_round * len(records)
    failed = sum(workload.tally(o)[1] for o in outs)

    e2e = end_to_end(workload, trace_mod, plain)
    e2e.update(setup_s=setup_s, peak_rss_mib=peak_rss_mib)
    e2e = {k: v for k, v in e2e.items() if v is not None}
    print(f"# workload={args.workload} seed={args.seed} rounds={len(plain)} "
          f"untraced + {len(traced)} traced, attempted={attempted} failed={failed}")
    print("# round wall_s: " + " ".join(f"{r['wall']:.4f}" for r in records))
    for name, value in e2e.items():
        print(f"{name:>14} {value:.6g} {END_TO_END_UNITS[name]}")

    if args.trace:
        values, problems = per_layer(trace_mod, plain, traced)
        failures += problems
        units = trace_mod.LAYER_UNITS
        for name, value in values.items():
            print(f"{name:>36} {value:.6g} {units[name]}")
        write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", traced)
    else:
        values, units = e2e, END_TO_END_UNITS

    for msg in failures:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
