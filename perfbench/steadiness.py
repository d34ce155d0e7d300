#!/usr/bin/env python3
"""Steadiness report: runs each workload repeatedly and shows how much
every end-to-end metric moves between runs.

    python3 perfbench/steadiness.py --runs 10 [--workload NAME] [--seconds S]

Run i uses seed first_seed + i. For each metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median, the range (max - min) / median, and the metric's bound
from BENCHMARK.json. A spread above the bound fails the benchmark's
steadiness requirement; the aim is a third of it. Exits non-zero if any
run fails or any spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run_once(workload, seed, seconds):
    command = [sys.executable, RUN, "--workload", workload, "--seed",
               str(seed), "--trace", "0"]
    if seconds:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        return None
    if done.returncode != 0 or not result.get("correct"):
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    ok = True
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds)
            if result is None:
                print(f"{workload} seed {seed}: run failed")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                flush=True)
        print(f"\n{workload}: {args.runs} runs")
        print(f"{'metric':20} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            span = (max(vals) - min(vals)) / med if med else float("inf")
            bound = bounds[name]
            flag = ""
            if spread > bound:
                flag = "  SPREAD ABOVE BOUND"
                ok = False
            elif spread > bound / 3:
                flag = "  above a third of the bound"
            print(f"{name:20} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {span:9.4f} {bound:6.3f}{flag}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
