"""Run every workload repeatedly, seeds 1..runs, and print per end-to-end
metric the median, the quartiles and the spread (interquartile distance over
median).

Usage (from the repository root):

    python3 bench/repeat.py [--runs 10] [--sets 2] [--trace]

Each run lasts `run_seconds` from BENCHMARK.json. With --sets 2 or more the
whole set is repeated, and each metric's median in every later set is compared
with the first: that shift is what a bound has to absorb between two sets of
runs of the same code. With --trace each workload also gets as many traced
runs, whose per-layer medians are printed together with the tracing overhead:
how much lower the traced throughput is than the untraced.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def print_set(workload: str, runs: list[dict], seconds: float) -> dict[str, float]:
    """Print one set of runs of a workload; return each metric's median."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    wall = statistics.mean(r["wall_s"] for r in runs)
    print(f"== {workload}: {len(runs)} runs of {seconds:g} s, seeds 1..{len(runs)}, "
          f"correct={correct}, failed {failed} of {attempted}, {wall:.1f} s per run with set-up")
    print(f"   {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  values")
    medians = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median, q1, q3, share = spread(values)
        medians[name] = median
        bound = BOUNDS[name]
        flag = " *" if name != "setup_s" and share > bound / 3 else ""
        shown = " ".join(f"{v:.4g}" for v in values)
        print(f"   {name:<20} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} {share:>8.3f} {bound:>6}{flag}  {shown}")
    sys.stdout.flush()
    return medians


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    seconds = BENCHMARK["run_seconds"]
    seeds = range(1, args.runs + 1)

    medians: dict[str, list[dict[str, float]]] = {w: [] for w in WORKLOADS}
    for n in range(args.sets):
        print(f"# set {n + 1} of {args.sets}")
        for workload in WORKLOADS:
            runs = [one_run(workload, seed, seconds, 0) for seed in seeds]
            medians[workload].append(print_set(workload, runs, seconds))
            if args.trace and n == 0:
                traced = [one_run(workload, seed, seconds, 1) for seed in seeds]
                print(f"   per layer, median of {args.runs} traced runs:")
                for name, first in traced[0]["metrics"].items():
                    median = statistics.median(r["metrics"][name]["value"] for r in traced)
                    print(f"     {name:<28} {median:>14.6g} {first['unit']}")
                untraced = medians[workload][0]["throughput_rps"]
                traced_rps = statistics.median(r["metrics"]["trace.throughput_rps"]["value"] for r in traced)
                print(f"   tracing overhead: throughput {untraced:.1f} -> {traced_rps:.1f} req/s "
                      f"({1 - traced_rps / untraced:+.1%})")
    if args.sets > 1:
        print("# median of each later set against the first, as a share of the first")
        for workload in WORKLOADS:
            first, *later = medians[workload]
            print(f"== {workload}")
            for name, base in first.items():
                shifts = " ".join(f"{m[name] / base - 1:+.3f}" if base else "n/a" for m in later)
                worst = max(abs(m[name] / base - 1) for m in later) if base else 0.0
                flag = " *" if worst > BOUNDS[name] / 3 else ""
                print(f"   {name:<20} {base:>12.5g}  {shifts}  bound {BOUNDS[name]}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
