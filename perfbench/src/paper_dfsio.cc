// paper_dfsio: the paper's §7 DFSIO write-then-read on its evaluation
// cluster (9 workers with memory, SSD and HDD tiers), with MOOP placement
// that may use the memory tier and tier-aware retrieval, in the flow
// simulator's virtual time. It is the only workload where tier placement
// and retrieval decide the result. Each repetition builds a fresh cluster
// from a seed derived from the run's seed and runs one DFSIO job (write,
// then read); the reported figures are medians and percentiles over the
// repetitions, in virtual time, so all but setup_s depend on the
// arguments alone.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/units.h"
#include "core/placement.h"
#include "trace.h"
#include "workload/dfsio.h"
#include "workload/transfer_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// A run makes kRepsPerSecond repetitions per second of --seconds (one
/// takes about 14 ms on the reference host), and at least kMinReps:
/// enough job times for a p99 with ten samples beyond it. The count
/// depends on the arguments only, so the results depend on them only.
constexpr int kRepsPerSecond = 60;
constexpr int kMinReps = 1000;
/// setup_s is the median of samples taken every kSetupEvery repetitions,
/// so they spread over the whole run. One cluster creation takes about
/// 0.1 ms, so a sample is the mean of a batch of kSetupBatch creations.
constexpr int kSetupEvery = 50;
constexpr int kSetupBatch = 100;

octo::workload::DfsioOptions PaperOptions() {
  octo::workload::DfsioOptions options;
  options.parallelism = 27;
  options.total_bytes = 27 * 1536 * octo::kMiB;
  options.rep_vector = octo::ReplicationVector::OfTotal(3);
  return options;
}

std::unique_ptr<octo::Cluster> MakeCluster(uint64_t seed) {
  octo::ClusterSpec spec = octo::PaperClusterSpec();
  spec.master.seed = seed;
  auto created = octo::Cluster::Create(spec);
  if (!created.ok()) {
    std::fprintf(stderr, "cluster: %s\n", created.status().ToString().c_str());
    std::exit(1);
  }
  std::unique_ptr<octo::Cluster> cluster = std::move(created).value();
  octo::MoopOptions moop;
  moop.use_memory = true;
  cluster->master()->SetPlacementPolicy(octo::MakeMoopPolicy(moop));
  return cluster;
}

struct Outcome {
  double write_mbps = 0;  // per worker, virtual time
  double read_mbps = 0;
  double virtual_seconds = 0;  // the job: write plus read phase
  int64_t block_transfers = 0;  // block writes (all replicas) plus reads
  int64_t written = 0;
  int64_t read = 0;
};

/// One DFSIO write and read through workload::Dfsio.
octo::Result<Outcome> RunDfsio(octo::Cluster* cluster) {
  octo::workload::TransferEngine engine(cluster);
  octo::workload::Dfsio dfsio(cluster, &engine);
  OCTO_ASSIGN_OR_RETURN(octo::workload::DfsioResult write,
                        dfsio.RunWrite(PaperOptions()));
  OCTO_ASSIGN_OR_RETURN(octo::workload::DfsioResult read,
                        dfsio.RunRead(PaperOptions()));
  Outcome out;
  out.write_mbps = octo::ToMBps(write.ThroughputPerWorkerBps());
  out.read_mbps = octo::ToMBps(read.ThroughputPerWorkerBps());
  out.virtual_seconds = write.elapsed_seconds + read.elapsed_seconds;
  out.block_transfers =
      static_cast<int64_t>(write.events.size() + read.events.size());
  out.written = write.total_bytes;
  out.read = read.total_bytes;
  return out;
}

/// The traced run's DFSIO: the same files, clients and order as
/// workload::Dfsio, driven through TransferEngine and the simulator so
/// that a span wraps each call. Also measures where the replicas went and
/// how often retrieval ranks a reader-local replica first.
struct TracedDfsio {
  Outcome outcome;
  std::map<octo::TierId, double> replica_bytes_by_tier;
  int64_t blocks_ranked = 0;
  int64_t local_first = 0;
  std::vector<Phase> phases;
};

octo::Result<TracedDfsio> RunDfsioTraced(octo::Cluster* cluster) {
  const octo::workload::DfsioOptions options = PaperOptions();
  octo::workload::TransferEngine engine(cluster);
  octo::sim::Simulation* sim = cluster->simulation();
  const std::vector<octo::WorkerId>& ids = cluster->worker_ids();
  const size_t n = ids.size();
  // Dfsio::WriterNode / ReaderNode: writers round-robin, readers shifted
  // by a third of the cluster.
  auto writer = [&](int i) {
    return cluster->worker(ids[static_cast<size_t>(i) % n])->location();
  };
  auto reader = [&](int i) {
    return cluster->worker(ids[(static_cast<size_t>(i) + n / 3 + 1) % n])
        ->location();
  };
  auto path = [&](int i) { return options.dir + "/f" + std::to_string(i); };

  TracedDfsio out;
  const octo::ClusterState& state = cluster->master()->cluster_state();
  engine.set_write_event_callback(
      [&](double, int64_t bytes, const std::vector<octo::MediumId>& media) {
        out.outcome.written += bytes;
        for (octo::MediumId m : media) {
          const octo::MediumInfo* info = state.FindMedium(m);
          if (info != nullptr) out.replica_bytes_by_tier[info->tier] += bytes;
        }
      });
  engine.set_read_event_callback([&](double, int64_t bytes, octo::MediumId) {
    out.outcome.read += bytes;
  });

  int failures = 0;
  auto done = [&failures](octo::Status st) {
    if (!st.ok()) ++failures;
  };
  const int64_t per_file = options.total_bytes / options.parallelism;
  const int workers = std::min<int>(options.parallelism, static_cast<int>(n));

  int64_t start = NowNs();
  double virtual_start = sim->now();
  for (int i = 0; i < options.parallelism; ++i) {
    Span call("workload.transfer_engine.write_file_async");
    engine.WriteFileAsync(path(i), per_file, options.block_size,
                          options.rep_vector, writer(i), done);
  }
  {
    Span call("sim.run_until_idle");
    sim->RunUntilIdle();
  }
  double write_seconds = sim->now() - virtual_start;
  out.phases.push_back({"write", start, NowNs(), 1});

  start = NowNs();
  virtual_start = sim->now();
  for (int i = 0; i < options.parallelism; ++i) {
    Span call("workload.transfer_engine.read_file_async");
    engine.ReadFileAsync(path(i), reader(i), done);
  }
  {
    Span call("sim.run_until_idle");
    sim->RunUntilIdle();
  }
  double read_seconds = sim->now() - virtual_start;
  out.phases.push_back({"read", start, NowNs(), 1});
  engine.set_write_event_callback(nullptr);
  engine.set_read_event_callback(nullptr);
  // Ranked after the reads: ranking draws on the retrieval policy's
  // tie-breaking randomness, which would otherwise change the reads.
  for (int i = 0; i < options.parallelism; ++i) {
    Span call("cluster.master.get_block_locations");
    auto blocks = cluster->master()->GetBlockLocations(path(i), reader(i));
    if (!blocks.ok()) {
      ++failures;
      continue;
    }
    for (const octo::LocatedBlock& block : *blocks) {
      ++out.blocks_ranked;
      if (!block.locations.empty() &&
          block.locations.front().location == reader(i)) {
        ++out.local_first;
      }
    }
  }

  if (failures > 0) {
    return octo::Status::IoError(std::to_string(failures) +
                                 " DFSIO transfers failed");
  }
  out.outcome.virtual_seconds = write_seconds + read_seconds;
  out.outcome.write_mbps = octo::ToMBps(
      static_cast<double>(per_file * options.parallelism) / write_seconds /
      workers);
  out.outcome.read_mbps = octo::ToMBps(
      static_cast<double>(out.outcome.read) / read_seconds / workers);
  return out;
}

void CheckBytes(const Outcome& outcome, const std::string& what,
                Report* report) {
  const int64_t total = PaperOptions().total_bytes;
  report->Attempt();
  if (outcome.written != total || outcome.read != total) {
    report->Fail(what + ": wrote " + std::to_string(outcome.written) +
                 ", read " + std::to_string(outcome.read) + " of " +
                 std::to_string(total) + " bytes");
  }
}

}  // namespace

void RunPaperDfsio(const Options& options, Report* report) {
  auto seed_of = [&](int rep) {
    return options.seed * 1000 + static_cast<uint64_t>(rep);
  };
  std::vector<double> setup_s;
  std::vector<double> write_mbps, read_mbps, ops_per_s, job_ms;
  const int reps = std::max(
      kMinReps, static_cast<int>(options.seconds * kRepsPerSecond));
  for (int rep = 0; rep < reps; ++rep) {
    if (rep % kSetupEvery == 0) {
      // The clusters are destroyed after timing: set-up is creation only.
      std::vector<std::unique_ptr<octo::Cluster>> batch;
      batch.reserve(kSetupBatch);
      const int64_t start = NowNs();
      for (int i = 0; i < kSetupBatch; ++i) {
        batch.push_back(MakeCluster(seed_of(rep) + static_cast<uint64_t>(i)));
      }
      setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9 /
                        kSetupBatch);
    }
    const uint64_t seed = seed_of(rep);
    std::unique_ptr<octo::Cluster> cluster = MakeCluster(seed);
    const int64_t dfsio_start = NowNs();
    octo::Result<Outcome> outcome = RunDfsio(cluster.get());
    const double untraced_wall = static_cast<double>(NowNs() - dfsio_start);
    if (!outcome.ok()) {
      report->Attempt();
      report->Fail("DFSIO: " + outcome.status().ToString());
      continue;
    }
    CheckBytes(*outcome, "DFSIO", report);
    write_mbps.push_back(outcome->write_mbps);
    read_mbps.push_back(outcome->read_mbps);
    ops_per_s.push_back(static_cast<double>(outcome->block_transfers) /
                        outcome->virtual_seconds);
    job_ms.push_back(outcome->virtual_seconds * 1e3);
    if (!options.trace || rep > 0) continue;

    // The traced run replays repetition 0 through RunDfsioTraced on a
    // fresh cluster from the same seed; its virtual-time results must
    // equal workload::Dfsio's.
    std::unique_ptr<octo::Cluster> replay = MakeCluster(seed);
    const octo::sim::Simulation::SolverStats before =
        replay->simulation()->solver_stats();
    Tracer::SetEnabled(true);
    int64_t traced_start = NowNs();
    octo::Result<TracedDfsio> traced = RunDfsioTraced(replay.get());
    const double traced_wall = static_cast<double>(NowNs() - traced_start);
    Tracer::SetEnabled(false);
    report->Attempt();
    if (!traced.ok()) {
      report->Fail("traced DFSIO: " + traced.status().ToString());
      continue;
    }
    CheckBytes(traced->outcome, "traced DFSIO", report);
    report->Attempt();
    if (traced->outcome.virtual_seconds != outcome->virtual_seconds) {
      report->Fail("traced DFSIO took a different virtual time than Dfsio");
    }
    const octo::sim::Simulation::SolverStats& after =
        replay->simulation()->solver_stats();
    std::vector<SpanRecord> spans = Tracer::Collect();
    double replica_bytes = 0;
    for (const auto& [tier, bytes] : traced->replica_bytes_by_tier) {
      replica_bytes += bytes;
    }
    auto share = [&](octo::TierId tier) {
      auto it = traced->replica_bytes_by_tier.find(tier);
      return it == traced->replica_bytes_by_tier.end() || replica_bytes == 0
                 ? 0.0
                 : it->second / replica_bytes;
    };
    const int64_t blocks = traced->blocks_ranked;
    report->Add("core.placement.tier_share.memory", share(octo::kMemoryTier),
                "ratio", blocks);
    report->Add("core.placement.tier_share.ssd", share(octo::kSsdTier),
                "ratio", blocks);
    report->Add("core.placement.tier_share.hdd", share(octo::kHddTier),
                "ratio", blocks);
    report->Add("core.retrieval.local_read_share",
                blocks > 0 ? static_cast<double>(traced->local_first) / blocks
                           : 0,
                "ratio", blocks);
    std::vector<double> idle_us = DurationsUs(spans, "sim.run_until_idle");
    double idle_ms = 0;
    for (double us : idle_us) idle_ms += us / 1e3;
    report->Add("sim.run_until_idle_ms", idle_ms, "ms",
                static_cast<int64_t>(idle_us.size()));
    report->Add("sim.solver.recomputes",
                static_cast<double>(after.recomputes - before.recomputes),
                "count", 1);
    report->Add("sim.solver.flows_visited",
                static_cast<double>(after.flows_visited - before.flows_visited),
                "count", 1);
    report->Add("sim.solver.solve_rounds",
                static_cast<double>(after.solve_rounds - before.solve_rounds),
                "count", 1);
    report->Add("sim.solver.completion_pushes",
                static_cast<double>(after.completion_pushes -
                                    before.completion_pushes),
                "count", 1);
    report->Add("sim.solver.stale_pops",
                static_cast<double>(after.stale_pops - before.stale_pops),
                "count", 1);
    report->Add("trace.overhead", traced_wall / untraced_wall - 1, "ratio", 1);
    ReportAttribution(spans, traced->phases, report);
    if (!options.trace_out.empty() &&
        !Tracer::WriteChromeTrace(options.trace_out, spans)) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
    }
  }
  report->Add("setup_s", Median(setup_s), "s",
              static_cast<int64_t>(setup_s.size()));
  if (!options.trace) {
    auto n = [](const std::vector<double>& v) {
      return static_cast<int64_t>(v.size());
    };
    report->Add("write_mbps", Median(write_mbps), "MB/s", n(write_mbps));
    report->Add("read_mbps", Median(read_mbps), "MB/s", n(read_mbps));
    report->Add("ops_per_s", Median(ops_per_s), "ops/s", n(ops_per_s));
    report->Add("op_p50_ms", Median(job_ms), "ms", n(job_ms));
    report->Add("op_p99_ms", Percentile(job_ms, 0.99), "ms", n(job_ms));
  }
}

}  // namespace perfbench
