// datapath: the real-byte path FileSystem -> Master -> Worker -> BlockStore,
// driven by one client thread. Each round writes a few RF-3 files, reads
// them back whole, issues seeded random 4 KiB preads (each through a
// fresh Open, so the reader's one-block cache never serves one), then
// deletes the files and runs one control-loop step (heartbeats, which
// reclaim the replicas, and a replication-monitor round over the few
// blocks left). Client, worker and storage (copy plus whole-block CRC) do
// almost all the work; the master sees one AddBlock/CommitBlock per block.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "client/file_system.h"
#include "cluster/cluster.h"
#include "layered_client.h"
#include "storage/checksum.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int64_t kFileBytes = 8 * octo::kMiB;
/// An explicit block size of a few MiB: with the 128 MiB default one
/// cold 4 KiB pread would copy and checksum a whole 128 MiB block.
constexpr int64_t kBlockBytes = 2 * octo::kMiB;
constexpr int kFilesPerRound = 2;
constexpr int kPreadsPerRound = 96;
constexpr int64_t kPreadBytes = 4 * octo::kKiB;
/// Enough cold preads for a p99 with ten samples beyond it.
constexpr int kMinPreads = 1000;
constexpr int kSetups = 5;
/// Payload stream of the warm-up file (rounds use 0, 1, 2, ...).
constexpr uint64_t kWarmupStream = ~uint64_t{0};

double Mbps(int64_t bytes, int64_t ns) {
  return static_cast<double>(bytes) / (static_cast<double>(ns) / 1e9) / 1e6;
}

std::string FilePath(int round, int i) {
  return "/datapath/r" + std::to_string(round) + "_f" + std::to_string(i);
}

/// One client against one cluster, either through octo::FileSystem
/// (untraced rounds) or through the span-wrapped LayeredClient.
class Client {
 public:
  explicit Client(uint64_t seed) {
    octo::ClusterSpec spec = octo::PaperClusterSpec();
    spec.with_simulation = false;  // wall-clock run: the simulator is bypassed
    spec.master.seed = seed;
    auto created = octo::Cluster::Create(spec);
    if (!created.ok()) {
      std::fprintf(stderr, "cluster: %s\n",
                   created.status().ToString().c_str());
      std::exit(1);
    }
    cluster_ = std::move(created).value();
    octo::NetworkLocation here("rack0", "node0");
    fs_ = std::make_unique<octo::FileSystem>(cluster_.get(), here);
    layered_ = std::make_unique<LayeredClient>(cluster_.get(), here,
                                               fs_->client_name());
    options_.rep_vector = octo::ReplicationVector::OfTotal(3);
    options_.block_size = kBlockBytes;
  }

  void set_layered(bool layered) { use_layered_ = layered; }
  octo::FileSystem* fs() { return fs_.get(); }
  LayeredClient* layered() { return layered_.get(); }

  octo::Status Write(const std::string& path, const std::string& data) {
    if (use_layered_) {
      return layered_->WriteFile(path, data, options_.rep_vector, kBlockBytes);
    }
    return fs_->WriteFile(path, data, options_);
  }
  octo::Result<std::string> Read(const std::string& path) {
    if (use_layered_) return layered_->ReadFile(path);
    return fs_->ReadFile(path);
  }
  octo::Result<std::string> Pread(const std::string& path, int64_t offset) {
    if (use_layered_) return layered_->Pread(path, offset, kPreadBytes);
    OCTO_ASSIGN_OR_RETURN(std::unique_ptr<octo::FileReader> reader,
                          fs_->Open(path));
    return reader->Pread(offset, kPreadBytes);
  }
  octo::Status Delete(const std::string& path) {
    if (use_layered_) return layered_->Delete(path);
    return fs_->Delete(path);
  }

  /// One control-loop step: heartbeats (which execute the deletions the
  /// master queued) and one replication-monitor round.
  octo::Status ControlStep() {
    {
      Span call("cluster.heartbeat_round");
      OCTO_RETURN_IF_ERROR(cluster_->PumpHeartbeats().status());
    }
    if (Tracer::enabled()) {
      monitor_blocks_.push_back(
          static_cast<double>(cluster_->master()->block_manager().NumBlocks()));
    }
    Span call("cluster.repair.monitor_round");
    cluster_->master()->RunReplicationMonitor();
    return octo::Status::OK();
  }
  /// Blocks in the master's map at each traced monitor round.
  const std::vector<double>& monitor_blocks() const { return monitor_blocks_; }

 private:
  std::unique_ptr<octo::Cluster> cluster_;
  std::unique_ptr<octo::FileSystem> fs_;
  std::unique_ptr<LayeredClient> layered_;
  octo::CreateOptions options_;
  bool use_layered_ = false;
  std::vector<double> monitor_blocks_;
};

void Check(bool ok, const std::string& what, Report* report) {
  report->Attempt();
  if (!ok) report->Fail(what);
}

/// Cluster creation plus a warm-up file written, read back and deleted,
/// so lazy set-up (allocator growth, first-touch pages) is paid here.
std::unique_ptr<Client> SetUp(uint64_t seed, Report* report) {
  std::string payload;
  FillPayload(seed, kWarmupStream, &payload, kFileBytes);
  auto client = std::make_unique<Client>(seed);
  const std::string path = "/datapath/warmup";
  Check(client->Write(path, payload).ok(), "warm-up write", report);
  auto back = client->Read(path);
  Check(back.ok() && *back == payload, "warm-up read-back", report);
  Check(client->Delete(path).ok(), "warm-up delete", report);
  Check(client->ControlStep().ok(), "warm-up control step", report);
  return client;
}

struct Samples {
  std::vector<double> write_mbps;
  std::vector<double> read_mbps;
  std::vector<double> pread_ms;
  /// Cold preads per second over each round's pread phase.
  std::vector<double> preads_per_s;
};

}  // namespace

void RunDatapath(const Options& options, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<Client> client;
  for (int i = 0; i < kSetups; ++i) {
    client.reset();  // the previous cluster's memory goes before timing
    int64_t start = NowNs();
    client = SetUp(options.seed, report);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  // A traced run alternates untraced rounds (FileSystem, as in the
  // untraced run) with traced rounds (LayeredClient), so trace.overhead
  // compares the two on the same cluster.
  Samples plain, traced;
  std::vector<Phase> phases;
  int64_t faults = 0;
  int64_t faulted_bytes = 0;
  Rng rng(options.seed);
  std::vector<std::string> payloads(kFilesPerRound);
  int64_t preads = 0;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (int round = 0; NowNs() < deadline || preads < kMinPreads; ++round) {
    const bool traced_round = options.trace && round % 2 == 1;
    Tracer::SetEnabled(traced_round);
    client->set_layered(traced_round);
    Samples& out = traced_round ? traced : plain;
    for (int i = 0; i < kFilesPerRound; ++i) {
      FillPayload(options.seed,
                  static_cast<uint64_t>(round * kFilesPerRound + i),
                  &payloads[i], kFileBytes);
    }

    int64_t faults_before = MinorFaults();
    int64_t phase_start = NowNs();
    for (int i = 0; i < kFilesPerRound; ++i) {
      int64_t t0 = NowNs();
      octo::Status st = client->Write(FilePath(round, i), payloads[i]);
      int64_t t1 = NowNs();
      report->Attempt();
      if (!st.ok()) {
        report->Fail("write " + FilePath(round, i) + ": " + st.ToString());
        continue;
      }
      out.write_mbps.push_back(Mbps(kFileBytes, t1 - t0));
    }
    if (traced_round) phases.push_back({"write", phase_start, NowNs(), 1});

    std::vector<octo::Result<std::string>> scans;
    phase_start = NowNs();
    for (int i = 0; i < kFilesPerRound; ++i) {
      int64_t t0 = NowNs();
      scans.push_back(client->Read(FilePath(round, i)));
      int64_t t1 = NowNs();
      if (scans.back().ok()) out.read_mbps.push_back(Mbps(kFileBytes, t1 - t0));
    }
    if (traced_round) {
      phases.push_back({"read", phase_start, NowNs(), 1});
      faults += MinorFaults() - faults_before;
      faulted_bytes += 2 * kFilesPerRound * kFileBytes;
    }
    for (int i = 0; i < kFilesPerRound; ++i) {
      Check(scans[i].ok() && *scans[i] == payloads[i],
            "read-back of " + FilePath(round, i), report);
    }
    scans.clear();

    struct Probe {
      int file;
      int64_t offset;
      octo::Result<std::string> data;
    };
    std::vector<Probe> probes;
    probes.reserve(kPreadsPerRound);
    phase_start = NowNs();
    for (int p = 0; p < kPreadsPerRound; ++p) {
      int file = static_cast<int>(rng.Below(kFilesPerRound));
      int64_t offset = static_cast<int64_t>(
                           rng.Below(kFileBytes / kPreadBytes)) *
                       kPreadBytes;
      int64_t t0 = NowNs();
      octo::Result<std::string> data =
          client->Pread(FilePath(round, file), offset);
      int64_t t1 = NowNs();
      if (data.ok()) out.pread_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      probes.push_back(Probe{file, offset, std::move(data)});
    }
    const int64_t pread_end = NowNs();
    out.preads_per_s.push_back(kPreadsPerRound /
                               (static_cast<double>(pread_end - phase_start) /
                                1e9));
    if (traced_round) phases.push_back({"pread", phase_start, pread_end, 1});
    preads += kPreadsPerRound;
    for (const Probe& probe : probes) {
      Check(probe.data.ok() &&
                *probe.data == std::string_view(payloads[probe.file])
                                   .substr(static_cast<size_t>(probe.offset),
                                           kPreadBytes),
            "pread of " + FilePath(round, probe.file) + " at " +
                std::to_string(probe.offset),
            report);
    }

    if (traced_round) {
      // The layered client must have written what FileSystem reads back.
      Tracer::SetEnabled(false);
      for (int i = 0; i < kFilesPerRound; ++i) {
        auto back = client->fs()->ReadFile(FilePath(round, i));
        Check(back.ok() && *back == payloads[i],
              "FileSystem read-back of layered write " + FilePath(round, i),
              report);
      }
      Tracer::SetEnabled(true);
      for (const std::string& payload : payloads) {
        for (int64_t off = 0; off < kFileBytes; off += kBlockBytes) {
          Span call("storage.crc32c");
          volatile uint32_t crc =
              octo::Crc32c(payload.data() + off, kBlockBytes);
          (void)crc;
        }
      }
    }
    for (int i = 0; i < kFilesPerRound; ++i) {
      Check(client->Delete(FilePath(round, i)).ok(),
            "delete " + FilePath(round, i), report);
    }
    Check(client->ControlStep().ok(), "control step", report);
  }
  Tracer::SetEnabled(false);

  report->Add("setup_s", Median(setup_s), "s", kSetups);
  if (!options.trace) {
    report->Add("write_mbps", Median(plain.write_mbps), "MB/s",
                static_cast<int64_t>(plain.write_mbps.size()));
    report->Add("read_mbps", Median(plain.read_mbps), "MB/s",
                static_cast<int64_t>(plain.read_mbps.size()));
    report->Add("ops_per_s", Median(plain.preads_per_s), "ops/s",
                static_cast<int64_t>(plain.preads_per_s.size()));
    report->Add("op_p50_ms", Median(plain.pread_ms), "ms",
                static_cast<int64_t>(plain.pread_ms.size()));
    report->Add("op_p99_ms", Percentile(plain.pread_ms, 0.99), "ms",
                static_cast<int64_t>(plain.pread_ms.size()));
    return;
  }

  std::vector<SpanRecord> spans = Tracer::Collect();
  auto n = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  std::vector<double> crc_mbps;
  for (double us : DurationsUs(spans, "storage.crc32c")) {
    crc_mbps.push_back(static_cast<double>(kBlockBytes) / us);
  }
  report->Add("storage.crc32c_mbps", Median(crc_mbps), "MB/s", n(crc_mbps));
  LayeredClient* layered = client->layered();
  report->Add("cluster.worker.read_amplification",
              layered->pread_bytes_asked() > 0
                  ? static_cast<double>(layered->pread_bytes_returned()) /
                        static_cast<double>(layered->pread_bytes_asked())
                  : 0,
              "ratio", n(traced.pread_ms));
  report->Add("process.minor_faults_per_mib",
              static_cast<double>(faults) /
                  (static_cast<double>(faulted_bytes) / octo::kMiB),
              "count/MiB", faulted_bytes / octo::kMiB);
  report->Add("trace.overhead",
              Median(plain.write_mbps) / Median(traced.write_mbps) - 1, "ratio",
              n(traced.write_mbps));
  AddSharedLayerMetrics(spans, client->monitor_blocks(), report);
  ReportAttribution(spans, phases, report);
  if (!options.trace_out.empty() &&
      !Tracer::WriteChromeTrace(options.trace_out, spans)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
  }
}

}  // namespace perfbench
