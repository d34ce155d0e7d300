#!/usr/bin/env python3
"""OctopusFS end-to-end benchmark.

Builds the benchmark program from the repository's sources, runs one
workload (or, without --workload, all of them), checks its outputs, prints
every metric with its unit and sample count, and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload datapath --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30          # all workloads

--trace 0 reports every end-to-end metric of BENCHMARK.json (each workload
measures each one on its own operations; see perfbench/README.md);
--trace 1 reports every per-layer metric (0 where the workload does not
reach that layer) and writes a Chrome trace to
.bench_build/traces/. Exits non-zero if the build fails, any operation
fails, or any output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["datapath", "small_files", "paper_dfsio"]
# The program must finish well inside the 180-second limit of one run.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds the benchmark (incrementally); False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"build: {e}")
            return False
        if done.returncode != 0:
            log(f"build failed: {' '.join(step)}")
            return False
    return os.path.exists(BINARY)


def run_workload(workload, seed, seconds, trace):
    """Runs the program once; returns its parsed result or None."""
    work_dir = os.path.join(BUILD_ROOT, "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--work-dir", work_dir]
    if trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log(f"{workload}: exit {done.returncode}, no result line")
        return None
    result["exit_code"] = done.returncode
    return result


def select_metrics(workload, result, spec, trace):
    """The metrics the result line carries, checked against BENCHMARK.json."""
    declared = {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    emitted = result["metrics"]
    unknown = sorted(set(emitted) - known)
    if unknown:
        log(f"{workload}: metrics missing from BENCHMARK.json: {unknown}")
        return None
    selected = {}
    for name, m in declared.items():
        if name in emitted:
            if emitted[name]["unit"] != m["unit"]:
                log(f"{workload}: {name} is in {emitted[name]['unit']}, "
                    f"BENCHMARK.json says {m['unit']}")
                return None
            selected[name] = {"value": emitted[name]["value"], "unit": m["unit"]}
        elif trace:
            # A layer this workload does not reach.
            selected[name] = {"value": 0, "unit": m["unit"]}
        else:
            log(f"{workload}: no {name}")
            return None
    return selected


def print_table(workload, result):
    metrics = result["metrics"]
    attempted = max(1, result["attempted"])
    print(f"\n== {workload}")
    print(f"{'metric':44} {'value':>14} {'unit':10} {'samples':>8}")
    rows = [(name, m["value"], m["unit"], m["samples"])
            for name, m in metrics.items()]
    rows.append(("failed_ops_ratio", result["failed"] / attempted, "ratio",
                 result["attempted"]))
    for name, value, unit, samples in rows:
        print(f"{name:44} {value:14.6g} {unit:10} {samples:8d}")
    for error in result.get("errors", []):
        print(f"  check failed: {error}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"BENCHMARK.json: {e}")
        return 2
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    if not build():
        return 2

    workloads = [args.workload] if args.workload else WORKLOADS
    correct = True
    attempted = failed = 0
    line_metrics = {}
    for workload in workloads:
        result = run_workload(workload, args.seed, seconds, args.trace == 1)
        if result is None:
            return 1
        print_table(workload, result)
        selected = select_metrics(workload, result, spec, args.trace == 1)
        if selected is None:
            return 1
        correct = (correct and result["exit_code"] == 0 and
                   result["failed"] == 0 and result["attempted"] > 0)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in selected.items():
            key = name if args.workload else f"{workload}/{name}"
            line_metrics[key] = m

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": line_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
