#!/bin/sh
# Builds the benchmarks in an optimized tree and runs the hot-path
# benches (placement decisions, simulation event engine, metadata
# plane) plus the automated-tiering scenario bench, writing
# BENCH_placement.json, BENCH_sim.json, BENCH_metadata.json, and
# BENCH_tiering.json to the repo root.
#
# Usage: tools/run_benches.sh [build-dir]
#   build-dir defaults to build-bench (Release: -O2/-O3, -DNDEBUG).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-bench"}

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j --target bench_placement_hotpath \
    --target bench_sim_hotpath --target bench_metadata_hotpath \
    --target bench_tiering --target bench_repair

# The placement bench sweeps 10/100/1000/10000 workers for every policy,
# including both MOOP candidate-enumeration modes (exhaustive and the
# sublinear sampled mode of DESIGN.md §11).
"$build_dir/bench/bench_placement_hotpath" "$repo_root/BENCH_placement.json"
"$build_dir/bench/bench_sim_hotpath" "$repo_root/BENCH_sim.json"
"$build_dir/bench/bench_metadata_hotpath" "$repo_root/BENCH_metadata.json"
# Automated tiering engine vs. static placement on the skewed-read
# scenarios (zipf hot-set drift, diurnal, scan/point mix) — DESIGN.md §13.
"$build_dir/bench/bench_tiering" "$repo_root/BENCH_tiering.json"
# Repair storm (one rack crashes under a foreground read workload):
# throttled vs unthrottled re-replication, then the monitor round's cost
# at 10k, 100k and 1M blocks — DESIGN.md §15.
"$build_dir/bench/bench_repair" "$repo_root/BENCH_repair.json"
echo "results: $repo_root/BENCH_placement.json, $repo_root/BENCH_sim.json," \
     "$repo_root/BENCH_metadata.json, $repo_root/BENCH_tiering.json," \
     "$repo_root/BENCH_repair.json"
echo "baselines (pre-optimization): BENCH_placement.baseline.json," \
     "BENCH_sim.baseline.json, BENCH_tiering.baseline.json," \
     "BENCH_metadata.baseline.json, BENCH_repair.baseline.json"

# Gate: any (workers, policy) pair that lost more than 20% throughput
# against the checked-in baseline fails the run (set -e propagates).
# For BENCH_metadata the gated row is checkpoint-stall availability
# (1 - longest mutation outage / checkpoint wall time): the 1.0
# baseline with the default 20% tolerance enforces the DESIGN.md §14
# claim that the fuzzy checkpoint never stalls mutations while the
# 1M-file image is written. The raw >= 0.8x throughput ratio is also
# in BENCH_metadata.json for hosts with >= 2 cores.
if command -v python3 >/dev/null 2>&1; then
  python3 "$repo_root/tools/check_bench_regression.py" \
      "$repo_root/BENCH_placement.json" \
      "$repo_root/BENCH_placement.baseline.json"
  python3 "$repo_root/tools/check_bench_regression.py" \
      "$repo_root/BENCH_tiering.json" \
      "$repo_root/BENCH_tiering.baseline.json" \
      --metric read_mbps
  python3 "$repo_root/tools/check_bench_regression.py" \
      "$repo_root/BENCH_metadata.json" \
      "$repo_root/BENCH_metadata.baseline.json" \
      --metric mutation_availability
  # The gated row is the throttled arm's foreground-read p99 advantage
  # over unthrottled repair (p99_gain_vs_unthrottled > 1 means the
  # throttle measurably protects the read tail during a repair storm;
  # the unthrottled row carries no such metric and is skipped).
  python3 "$repo_root/tools/check_bench_regression.py" \
      "$repo_root/BENCH_repair.json" \
      "$repo_root/BENCH_repair.baseline.json" \
      --metric p99_gain_vs_unthrottled
  # The monitor round must not grow with the block map: the idle round at
  # 1M blocks stays within 2x of the one at 10k (idle_round_flatness =
  # 10k time / 1M time, floor 0.5, no tolerance below it).
  python3 "$repo_root/tools/check_bench_regression.py" \
      "$repo_root/BENCH_repair.json" \
      "$repo_root/BENCH_repair.baseline.json" \
      --metric idle_round_flatness --tolerance 0
else
  echo "warning: python3 not found, skipping bench regression check" >&2
fi
