// Repair-storm benchmark: one rack (3 of the 9 workers) of the paper's
// evaluation cluster crashes at once while a foreground read workload
// keeps running. Two arms compare the repair plane's throttle:
//
//   "throttled"   — tight operator budgets (2 in-flight copies per
//                   worker, 256 MiB in flight per medium) so repair
//                   traffic leaves headroom for foreground reads;
//   "unthrottled" — the caps effectively removed, every repair copy
//                   dispatched the moment it is classified (the
//                   pre-scheduler behaviour).
//
// Both arms measure virtual time-to-full-RF (every block back at its
// full replication on live workers) and the foreground read latency
// distribution over the reads issued while the storm was in flight.
// Repair copies and reads share the same simulated media and NICs, so
// the unthrottled arm recovers faster but tramples read tail latency —
// the throttled arm's p99 advantage is the gated metric. Each arm runs
// the storm under kStormSeeds placement seeds and pools their reads
// (96 per seed), so the p99 rests on more than ten reads above it;
// time-to-full-RF and repair MB/s are medians over the seeds.
//
// A second part sweeps the monitor round's cost against block-map size
// (10k, 100k, 1M blocks on a bare Master, no repair work anywhere): the
// idle round's time, the reference full-scan round's time for contrast,
// and heartbeat latency while rounds run back to back. The event-driven
// round visits only changed blocks, so its idle cost must not grow with
// the map.
//
// Emits BENCH_repair.json (path overridable via argv[1]); rows are
// keyed (workers, policy). The "throttled" row carries
// p99_gain_vs_unthrottled = unthrottled p99 / throttled p99, and the
// "idle_round_scaling" row idle_round_flatness = idle round at 10k
// blocks / idle round at 1M blocks; tools/run_benches.sh gates both
// higher-is-better (flatness against a floor of 0.5: the 1M-block idle
// round within 2x of the 10k one).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "namespacefs/fsimage.h"
#include "namespacefs/namespace_tree.h"
#include "workload/transfer_engine.h"

using namespace octo;

namespace {

constexpr int kFiles = 36;
constexpr int64_t kBlockBytes = 128 * kMiB;
constexpr int64_t kFileBytes = 2 * kBlockBytes;
constexpr int kReadsPerRound = 4;
// Reads are issued for a fixed number of rounds in both arms — the same
// foreground workload, whose tail the repair policy shapes.
constexpr int kReadRounds = 24;
constexpr int kMaxRounds = 400;
constexpr uint64_t kFirstSeed = 42;
constexpr int kStormSeeds = 12;

struct ArmResult {
  double time_to_full_rf_s = 0;
  double read_p50_ms = 0;
  double read_p99_ms = 0;
  int reads = 0;
  int read_failures = 0;
  int64_t peak_worker_inflight = 0;
  int64_t copies_completed = 0;
  double repair_mbps = 0;
  /// The storm-time foreground read latencies behind p50/p99.
  std::vector<double> latencies_ms;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * (values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

bool AllBlocksAtFullRf(Master* master) {
  bool full = true;
  master->block_manager().ForEach([&](const BlockRecord& record) {
    if (record.locations.size() < 2) full = false;
  });
  return full;
}

ArmResult RunArm(bool throttled, uint64_t seed) {
  ClusterSpec spec = PaperClusterSpec();
  spec.master.seed = seed;
  if (throttled) {
    spec.master.repair.max_inflight_per_worker = 2;
    spec.master.repair.max_bytes_per_medium = 256 * kMiB;
  } else {
    spec.master.repair.max_inflight_per_worker = 1 << 20;
    spec.master.repair.max_bytes_per_medium = int64_t{1} << 50;
  }
  auto created = Cluster::Create(spec);
  OCTO_CHECK(created.ok()) << created.status().ToString();
  std::unique_ptr<Cluster> cluster = std::move(created).value();
  Master* master = cluster->master();
  sim::Simulation* sim = cluster->simulation();
  workload::TransferEngine engine(cluster.get());

  // Data set: HDD-resident, RF 2 — the regime where a rack failure
  // leaves most blocks one failure from loss (kLastReplica priority) and
  // the surviving replica serves foreground reads AND the repair copy,
  // so the storm's contention cannot be steered around by the
  // load-aware retrieval policy. Rack-spread keeps one replica of every
  // block off the rack we are about to kill.
  int write_failures = 0;
  for (int i = 0; i < kFiles; ++i) {
    engine.WriteFileAsync("/storm/f" + std::to_string(i), kFileBytes,
                          kBlockBytes, ReplicationVector::Of(0, 0, 2),
                          NetworkLocation("rack" + std::to_string(i % 3),
                                          "node" + std::to_string(i % 3)),
                          [&](Status st) {
                            if (!st.ok()) ++write_failures;
                          });
  }
  sim->RunUntilIdle();
  OCTO_CHECK(write_failures == 0) << "data-set writes failed";

  // One rack crashes silently; the failure is detected after the worker
  // timeout, when the survivors' heartbeats have aged it out.
  for (WorkerId id : cluster->worker_ids()) {
    const WorkerInfo* w = master->cluster_state().FindWorker(id);
    if (w != nullptr && w->location.rack() == "rack2") {
      cluster->CrashWorkerSilently(id);
    }
  }
  sim->Schedule(31.0, [] {});
  sim->RunUntilIdle();
  auto pumped = engine.PumpCommandsTimed();
  OCTO_CHECK(pumped.ok()) << pumped.status().ToString();
  OCTO_CHECK(master->CheckWorkerLiveness().size() == 3);

  // Repair storm with a concurrent foreground read workload. Both arms
  // issue the identical read schedule for kReadRounds rounds; the storm
  // overlaps more or less of it depending on how the throttle paces the
  // repair copies, and the latency distribution records the damage.
  const double storm_start = sim->now();
  std::vector<double> latencies_ms;
  ArmResult result;
  std::mt19937_64 rng(seed * 7919);
  double converged_at = -1;
  for (int round = 0; round < kMaxRounds; ++round) {
    int queued = master->RunReplicationMonitor();
    auto started = engine.PumpCommandsTimed();
    OCTO_CHECK(started.ok()) << started.status().ToString();
    if (round < kReadRounds) {
      for (int r = 0; r < kReadsPerRound; ++r) {
        int file = static_cast<int>(rng() % kFiles);
        int node = static_cast<int>(rng() % 3);
        double t0 = sim->now();
        engine.ReadFileAsync(
            "/storm/f" + std::to_string(file),
            NetworkLocation("rack" + std::to_string(node % 2),
                            "node" + std::to_string(node)),
            [&, t0](Status st) {
              if (st.ok()) {
                latencies_ms.push_back((sim->now() - t0) * 1e3);
              } else {
                ++result.read_failures;
              }
            });
      }
    }
    sim->RunUntilIdle();
    if (converged_at < 0 && AllBlocksAtFullRf(master)) {
      converged_at = sim->now();
    }
    if (converged_at >= 0 && round + 1 >= kReadRounds && queued == 0 &&
        *started == 0) {
      break;
    }
  }
  OCTO_CHECK(converged_at >= 0) << "storm never converged to full RF";

  RepairStats stats = master->repair_stats();
  result.time_to_full_rf_s = converged_at - storm_start;
  result.read_p50_ms = Percentile(latencies_ms, 0.50);
  result.read_p99_ms = Percentile(latencies_ms, 0.99);
  result.reads = static_cast<int>(latencies_ms.size());
  result.latencies_ms = std::move(latencies_ms);
  result.peak_worker_inflight = stats.peak_worker_inflight;
  result.copies_completed = stats.copies_completed;
  if (result.time_to_full_rf_s > 0) {
    result.repair_mbps = ToMBps(stats.copies_completed * kBlockBytes /
                                result.time_to_full_rf_s);
  }
  return result;
}

/// The storm under kStormSeeds seeds: reads pooled, copies summed, peak
/// maxed, time-to-full-RF and repair MB/s as medians over the seeds.
ArmResult RunArmOverSeeds(bool throttled) {
  ArmResult pooled;
  std::vector<double> full_rf_s;
  std::vector<double> repair_mbps;
  for (int i = 0; i < kStormSeeds; ++i) {
    ArmResult arm = RunArm(throttled, kFirstSeed + i);
    pooled.latencies_ms.insert(pooled.latencies_ms.end(),
                               arm.latencies_ms.begin(),
                               arm.latencies_ms.end());
    pooled.read_failures += arm.read_failures;
    pooled.peak_worker_inflight =
        std::max(pooled.peak_worker_inflight, arm.peak_worker_inflight);
    pooled.copies_completed += arm.copies_completed;
    full_rf_s.push_back(arm.time_to_full_rf_s);
    repair_mbps.push_back(arm.repair_mbps);
  }
  pooled.time_to_full_rf_s = Percentile(full_rf_s, 0.5);
  pooled.repair_mbps = Percentile(repair_mbps, 0.5);
  pooled.read_p50_ms = Percentile(pooled.latencies_ms, 0.50);
  pooled.read_p99_ms = Percentile(pooled.latencies_ms, 0.99);
  pooled.reads = static_cast<int>(pooled.latencies_ms.size());
  return pooled;
}

// ---------------------------------------------------------------------------
// Monitor-round scale sweep

constexpr int kSweepWorkers = 9;
constexpr int kMediaPerWorker = 3;
constexpr int64_t kSweepBlockBytes = 4 * kKiB;
constexpr int kBlocksPerFile = 1000;
constexpr int kIdleRounds = 200;
constexpr int kReferenceRounds = 3;
constexpr int kHeartbeats = 2000;

struct SweepResult {
  int64_t blocks = 0;
  double load_s = 0;
  double idle_round_us = 0;
  double reference_round_ms = 0;
  double heartbeat_p50_us = 0;
  double heartbeat_p99_us = 0;
  int64_t rounds_during_heartbeats = 0;
};

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A bare Master over 9 workers x 3 HDDs holding `num_blocks` RF-1
/// blocks, loaded the way a promoted master is: the namespace image
/// first, then one block report per worker (the last one ends safe mode,
/// whose exit round classifies every block once).
std::unique_ptr<Master> LoadSweepMaster(int64_t num_blocks, Clock* clock) {
  auto master = std::make_unique<Master>(MasterOptions{}, clock);
  std::vector<MediumId> media;
  for (int w = 0; w < kSweepWorkers; ++w) {
    auto worker = master->RegisterWorker(
        NetworkLocation("rack" + std::to_string(w % 3),
                        "node" + std::to_string(w)),
        1.25e9);
    OCTO_CHECK(worker.ok()) << worker.status().ToString();
    for (int m = 0; m < kMediaPerWorker; ++m) {
      MediumSpec hdd{kHddTier, MediaType::kHdd, int64_t{1} << 40,
                     FromMBps(126), FromMBps(177)};
      auto medium = master->RegisterMedium(*worker, hdd, ProfiledRates{});
      OCTO_CHECK(medium.ok()) << medium.status().ToString();
      media.push_back(*medium);
    }
  }
  std::string image;
  {
    NamespaceTree tree(clock);
    const UserContext root{"root", {}};
    for (int64_t id = 1; id <= num_blocks; ++id) {
      std::string path = "/sweep/f" + std::to_string((id - 1) / kBlocksPerFile);
      if ((id - 1) % kBlocksPerFile == 0) {
        OCTO_CHECK_OK(tree.CreateFile(path, ReplicationVector::OfTotal(1),
                                      kSweepBlockBytes, false, root));
      }
      OCTO_CHECK_OK(tree.AddBlock(path, BlockInfo{id, kSweepBlockBytes, 1}));
      if (id % kBlocksPerFile == 0 || id == num_blocks) {
        OCTO_CHECK_OK(tree.CompleteFile(path));
      }
    }
    image = FsImage::Serialize(tree);
  }
  OCTO_CHECK_OK(master->LoadImage(image));
  image.clear();
  image.shrink_to_fit();
  for (int w = 0; w < kSweepWorkers; ++w) {
    BlockReport report;
    // Every medium of the worker reports, empty or not.
    for (int m = 0; m < kMediaPerWorker; ++m) {
      report[media[w * kMediaPerWorker + m]];
    }
    for (int64_t id = 1; id <= num_blocks; ++id) {
      MediumId medium = media[id % media.size()];
      if (medium / kMediaPerWorker != w) continue;
      report[medium].push_back(
          ReplicaDescriptor{id, 1, kSweepBlockBytes, true});
    }
    OCTO_CHECK_OK(master->ProcessBlockReport(w, report));
  }
  OCTO_CHECK(!master->in_safe_mode()) << "sweep master stuck in safe mode";
  return master;
}

SweepResult RunSweep(int64_t num_blocks) {
  SystemClock clock;
  SweepResult result;
  result.blocks = num_blocks;
  auto load_start = std::chrono::steady_clock::now();
  std::unique_ptr<Master> master = LoadSweepMaster(num_blocks, &clock);
  result.load_s = MicrosSince(load_start) * 1e-6;

  // Idle rounds: nothing changed since the safe-mode exit round.
  std::vector<double> idle_us;
  for (int i = 0; i < kIdleRounds; ++i) {
    auto start = std::chrono::steady_clock::now();
    int queued = master->RunReplicationMonitor();
    idle_us.push_back(MicrosSince(start));
    OCTO_CHECK(queued == 0) << "idle round queued " << queued;
  }
  result.idle_round_us = Percentile(idle_us, 0.5);

  // The reference full scan (the audit) classifies every block, as every
  // round did before classification became event-driven.
  master->EnableRepairAuditForTest(true);
  std::vector<double> reference_ms;
  for (int i = 0; i < kReferenceRounds; ++i) {
    auto start = std::chrono::steady_clock::now();
    master->RunReplicationMonitor();
    reference_ms.push_back(MicrosSince(start) * 1e-3);
  }
  master->EnableRepairAuditForTest(false);
  OCTO_CHECK(master->repair_audit_stats().discrepancies == 0);
  result.reference_round_ms = Percentile(reference_ms, 0.5);

  // Heartbeats from the workers while another thread runs monitor rounds
  // back to back: the heartbeat waits for the service mutex the round
  // holds.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> rounds{0};
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      master->RunReplicationMonitor();
      rounds.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<double> heartbeat_us;
  heartbeat_us.reserve(kHeartbeats);
  for (int i = 0; i < kHeartbeats; ++i) {
    HeartbeatPayload hb;
    hb.worker = i % kSweepWorkers;
    auto start = std::chrono::steady_clock::now();
    auto commands = master->Heartbeat(hb);
    heartbeat_us.push_back(MicrosSince(start));
    OCTO_CHECK(commands.ok()) << commands.status().ToString();
  }
  stop.store(true, std::memory_order_relaxed);
  monitor.join();
  result.heartbeat_p50_us = Percentile(heartbeat_us, 0.50);
  result.heartbeat_p99_us = Percentile(heartbeat_us, 0.99);
  result.rounds_during_heartbeats = rounds.load();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_repair.json";
  bench::PrintHeader(
      "Repair storm: throttled vs unthrottled re-replication");

  ArmResult unthrottled = RunArmOverSeeds(/*throttled=*/false);
  ArmResult throttled = RunArmOverSeeds(/*throttled=*/true);

  auto print_arm = [](const char* name, const ArmResult& arm) {
    std::printf(
        "%-12s full RF in %6.1f s  read p50 %8.1f ms  p99 %8.1f ms  "
        "(%d reads, %d failed, peak %lld/worker, %.0f MB/s repair)\n",
        name, arm.time_to_full_rf_s, arm.read_p50_ms, arm.read_p99_ms,
        arm.reads, arm.read_failures,
        static_cast<long long>(arm.peak_worker_inflight), arm.repair_mbps);
  };
  print_arm("unthrottled", unthrottled);
  print_arm("throttled", throttled);
  double p99_gain = throttled.read_p99_ms > 0
                        ? unthrottled.read_p99_ms / throttled.read_p99_ms
                        : 0;
  std::printf("throttled read p99 is %.2fx better under the storm\n",
              p99_gain);

  bench::PrintHeader("Monitor round vs block-map size (no repair work)");
  std::vector<SweepResult> sweep;
  for (int64_t blocks :
       {int64_t{10'000}, int64_t{100'000}, int64_t{1'000'000}}) {
    sweep.push_back(RunSweep(blocks));
    const SweepResult& r = sweep.back();
    std::printf(
        "%8lld blocks  idle round %8.1f us  reference full scan %9.1f ms  "
        "heartbeat p50 %6.1f us p99 %7.1f us (%lld rounds ran)  "
        "load %.1f s\n",
        static_cast<long long>(r.blocks), r.idle_round_us,
        r.reference_round_ms, r.heartbeat_p50_us, r.heartbeat_p99_us,
        static_cast<long long>(r.rounds_during_heartbeats), r.load_s);
  }
  const double idle_10k = sweep.front().idle_round_us;
  const double idle_1m = sweep.back().idle_round_us;
  double flatness = idle_1m > 0 ? idle_10k / idle_1m : 0;
  std::printf("idle round at 1M blocks is %.2fx the 10k one\n",
              flatness > 0 ? 1.0 / flatness : 0.0);

  std::FILE* f = std::fopen(out_path, "w");
  OCTO_CHECK(f != nullptr) << "cannot write " << out_path;
  std::fprintf(f, "{\n  \"bench\": \"repair\",\n");
  std::fprintf(f, "  \"files\": %d,\n  \"file_bytes\": %lld,\n", kFiles,
               static_cast<long long>(kFileBytes));
  std::fprintf(f, "  \"crashed_workers\": 3,\n  \"results\": [\n");
  auto print_row = [&](const char* policy, const ArmResult& arm,
                       bool gain_row, const char* tail) {
    std::fprintf(
        f,
        "    {\"workers\": 9, \"policy\": \"%s\", "
        "\"time_to_full_rf_s\": %.2f, \"read_p50_ms\": %.1f, "
        "\"read_p99_ms\": %.1f, \"reads\": %d, \"read_failures\": %d, "
        "\"peak_worker_inflight\": %lld, \"copies_completed\": %lld, "
        "\"repair_mbps\": %.1f%s}%s\n",
        policy, arm.time_to_full_rf_s, arm.read_p50_ms, arm.read_p99_ms,
        arm.reads, arm.read_failures,
        static_cast<long long>(arm.peak_worker_inflight),
        static_cast<long long>(arm.copies_completed), arm.repair_mbps,
        gain_row
            ? (", \"p99_gain_vs_unthrottled\": " + std::to_string(p99_gain))
                  .c_str()
            : "",
        tail);
  };
  print_row("unthrottled", unthrottled, false, ",");
  print_row("throttled", throttled, true, ",");
  for (const SweepResult& r : sweep) {
    std::fprintf(
        f,
        "    {\"workers\": %d, \"policy\": \"idle_round_%lldk_blocks\", "
        "\"blocks\": %lld, \"idle_round_us\": %.2f, "
        "\"reference_round_ms\": %.2f, \"heartbeat_p50_us\": %.2f, "
        "\"heartbeat_p99_us\": %.2f, \"heartbeats\": %d},\n",
        kSweepWorkers, static_cast<long long>(r.blocks / 1000),
        static_cast<long long>(r.blocks), r.idle_round_us,
        r.reference_round_ms, r.heartbeat_p50_us, r.heartbeat_p99_us,
        kHeartbeats);
  }
  std::fprintf(f,
               "    {\"workers\": %d, \"policy\": \"idle_round_scaling\", "
               "\"idle_round_flatness\": %.4f}\n",
               kSweepWorkers, flatness);
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
