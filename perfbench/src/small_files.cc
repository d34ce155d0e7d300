// small_files: namespace-heavy traffic on tens of thousands of
// single-block 4 KiB files, with the master's segmented journal on disk.
// Client threads mix open+pread, stat, list, create+write, rename and
// delete while the main thread runs the master's control loop (heartbeats
// and a replication-monitor round) at a fixed wall-clock cadence, as a
// deployed master would. Bytes are negligible: the namespace tree, its
// stripe locks, the journal and the O(blocks) monitor round under the
// master's service mutex do the work.
//
// Two phases, alternated a few times over the run: a closed loop measures
// capacity; an open loop offers a fixed rate well below it, each operation
// timed from when it was due, so a stall that delays later operations
// shows in their latency.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/file_system.h"
#include "cluster/cluster.h"
#include "layered_client.h"
#include "storage/checksum.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kDirs = 256;
constexpr int kPreloadFiles = 32768;
constexpr int64_t kFileBytes = 4 * octo::kKiB;
constexpr int kSetups = 5;
/// The run alternates the two phases kCycles times; kCapacityShare of
/// each cycle is the closed-loop capacity phase.
constexpr int kCycles = 3;
constexpr double kCapacityShare = 0.5;
/// Offered rate of the paced phase (all client threads together).
constexpr double kOfferedOpsPerSec = 2000;
/// Control-loop cadence: heartbeats, then a replication-monitor round.
constexpr int64_t kControlPeriodNs = 500'000'000;
/// Capacity is the median completion rate over windows of one control
/// period: each window holds exactly one control round, so every window
/// sees the same share of monitor stall.
constexpr int64_t kWindowNs = kControlPeriodNs;

/// The operation types, issued in equal shares, as the paper's S-Live run
/// does (§7.4: the same number of operations of each type). Creates then
/// balance deletes, so the namespace (and memory) stays the same size.
enum class OpKind { kPread, kStat, kList, kCreate, kRename, kDelete };
constexpr int kOpKinds = 6;

std::string DirPath(int dir) { return "/small/d" + std::to_string(dir); }

/// The name of the file whose content is payload stream `stream`.
std::string FileName(uint64_t stream) {
  std::string name = "f";
  name += std::to_string(stream);
  return name;
}

/// One file as the model knows it: its name and the payload stream its
/// content was generated from.
struct FileEntry {
  std::string name;
  uint64_t stream = 0;
  bool layered = false;  // written by the LayeredClient
};

/// A client thread's part of the namespace. Thread t owns the
/// directories d with d % threads == t, so no two threads touch one file
/// and every operation's target exists: none fails by design.
struct Model {
  std::vector<int> dirs;
  std::vector<std::vector<FileEntry>> files;  // parallel to dirs
  uint64_t next_stream = 0;
  uint64_t renames = 0;
};

/// When a closed-loop operation completed, and its kind.
struct Completion {
  int64_t ns = 0;
  OpKind kind = OpKind::kStat;
};

/// One planned operation, made before it is timed.
struct Op {
  OpKind kind = OpKind::kStat;
  int dir = 0;    // index into Model::dirs
  int file = 0;   // index into Model::files[dir]
  int to_dir = 0; // rename target
  std::string path;
  std::string to_path;
  FileEntry created;
  std::string payload;
};

octo::CreateOptions FileOptions() {
  octo::CreateOptions options;
  options.rep_vector = octo::ReplicationVector::OfTotal(3);
  return options;
}

octo::NetworkLocation ClientLocation(int t) {
  return octo::NetworkLocation("rack" + std::to_string(t % 3),
                               "node" + std::to_string((t / 3) % 3));
}

/// A client thread: its model, its clients and its measurements.
class ClientThread {
 public:
  ClientThread(octo::Cluster* cluster, int index, uint64_t seed)
      : index_(index),
        seed_(seed),
        fs_(cluster, ClientLocation(index)),
        layered_(cluster, ClientLocation(index), fs_.client_name()),
        rng_(seed * 7919 + static_cast<uint64_t>(index)) {
    model_.next_stream = (static_cast<uint64_t>(index) + 1) << 40;
  }

  Model& model() { return model_; }
  octo::FileSystem& fs() { return fs_; }
  LayeredClient& layered() { return layered_; }
  void set_layered(bool layered) { use_layered_ = layered; }

  /// Closed loop until `end_ns`; records each completion.
  void RunClosed(int64_t end_ns, std::vector<Completion>* completions) {
    Op op;
    while (NowNs() < end_ns) {
      {
        Span span("workload.loadgen.plan");
        Plan(&op);
      }
      Execute(&op);
      completions->push_back(Completion{NowNs(), op.kind});
    }
  }

  /// Open loop: operation k of this thread is due at
  /// start + (k * threads + index) / rate. An operation whose due time
  /// has passed — the thread was still busy with earlier ones, e.g. stuck
  /// behind a stall — is issued at once and timed from its due time, so
  /// the wait the stall imposed counts. Otherwise the thread sleeps until
  /// the operation is due and times it from when it woke: the sleep's
  /// overshoot is the generator's error, not the system's latency (it
  /// shows in `late_ms`, with the stall-imposed lateness).
  void RunPaced(int64_t start_ns, int64_t end_ns, int threads,
                std::vector<double>* latency_ms, std::vector<double>* late_ms) {
    UsePreciseSleeps();
    Op op;
    for (int64_t k = 0;; ++k) {
      int64_t due = start_ns + static_cast<int64_t>(
                                   static_cast<double>(k * threads + index_) *
                                   1e9 / kOfferedOpsPerSec);
      if (due >= end_ns) break;
      {
        Span span("workload.loadgen.plan");
        Plan(&op);
      }
      int64_t from = due;
      if (NowNs() < due) {
        Span span("workload.loadgen.wait");
        SleepUntilNs(due);
        from = NowNs();
      }
      int64_t issued = NowNs();
      Execute(&op);
      int64_t done = NowNs();
      latency_ms->push_back(static_cast<double>(done - from) / 1e6);
      late_ms->push_back(static_cast<double>(issued - due) / 1e6);
    }
  }

  int index() const { return index_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  int64_t bytes_moved() const { return bytes_moved_; }

 private:
  OpKind PickKind() { return static_cast<OpKind>(rng_.Below(kOpKinds)); }

  std::string PathOf(int dir, const std::string& name) const {
    return DirPath(model_.dirs[static_cast<size_t>(dir)]) + "/" + name;
  }

  void Plan(Op* op) {
    op->kind = PickKind();
    op->dir = static_cast<int>(rng_.Below(model_.dirs.size()));
    std::vector<FileEntry>& files = model_.files[static_cast<size_t>(op->dir)];
    // Keep every directory non-empty: an empty one gets a create.
    if (files.size() < 2 && op->kind != OpKind::kList) {
      op->kind = OpKind::kCreate;
    }
    if (op->kind == OpKind::kCreate) {
      uint64_t stream = model_.next_stream++;
      op->created = FileEntry{FileName(stream), stream, use_layered_};
      op->path = PathOf(op->dir, op->created.name);
      FillPayload(seed_, stream, &op->payload, kFileBytes);
      return;
    }
    if (op->kind == OpKind::kList) {
      op->path = DirPath(model_.dirs[static_cast<size_t>(op->dir)]);
      return;
    }
    op->file = static_cast<int>(rng_.Below(files.size()));
    const FileEntry& entry = files[static_cast<size_t>(op->file)];
    op->path = PathOf(op->dir, entry.name);
    if (op->kind == OpKind::kRename) {
      op->to_dir = static_cast<int>(rng_.Below(model_.dirs.size()));
      op->created = entry;
      op->created.name =
          FileName(entry.stream) + "." + std::to_string(++model_.renames);
      op->to_path = PathOf(op->to_dir, op->created.name);
    }
  }

  /// Runs `op`, then checks its output and applies it to the model.
  void Execute(Op* op) {
    ++attempted_;
    std::vector<FileEntry>& files = model_.files[static_cast<size_t>(op->dir)];
    switch (op->kind) {
      case OpKind::kPread: {
        octo::Result<std::string> data = Pread(op->path);
        Span check("workload.loadgen.check");
        std::string expected;
        FillPayload(seed_, files[static_cast<size_t>(op->file)].stream,
                    &expected, kFileBytes);
        if (!data.ok() || *data != expected) {
          Fail("pread " + op->path +
               (data.ok() ? ": wrong bytes" : ": " + data.status().ToString()));
        }
        bytes_moved_ += kFileBytes;
        return;
      }
      case OpKind::kStat: {
        auto status = use_layered_ ? layered_.GetFileStatus(op->path)
                                   : fs_.GetFileStatus(op->path);
        if (!status.ok() || status->is_dir || status->length != kFileBytes) {
          Fail("stat " + op->path);
        }
        return;
      }
      case OpKind::kList: {
        auto listing = use_layered_ ? layered_.ListDirectory(op->path)
                                    : fs_.ListDirectory(op->path);
        Span check("workload.loadgen.check");
        if (!listing.ok() || listing->size() != files.size()) {
          Fail("list " + op->path);
        }
        return;
      }
      case OpKind::kCreate: {
        octo::Status st =
            use_layered_
                ? layered_.WriteFile(op->path, op->payload,
                                     FileOptions().rep_vector,
                                     FileOptions().block_size)
                : fs_.WriteFile(op->path, op->payload, FileOptions());
        if (!st.ok()) {
          Fail("create " + op->path + ": " + st.ToString());
          return;
        }
        files.push_back(op->created);
        bytes_moved_ += kFileBytes;
        return;
      }
      case OpKind::kRename: {
        octo::Status st = use_layered_ ? layered_.Rename(op->path, op->to_path)
                                       : fs_.Rename(op->path, op->to_path);
        if (!st.ok()) {
          Fail("rename " + op->path + ": " + st.ToString());
          return;
        }
        files.erase(files.begin() + op->file);
        model_.files[static_cast<size_t>(op->to_dir)].push_back(op->created);
        return;
      }
      case OpKind::kDelete: {
        octo::Status st = use_layered_ ? layered_.Delete(op->path)
                                       : fs_.Delete(op->path);
        if (!st.ok()) {
          Fail("delete " + op->path + ": " + st.ToString());
          return;
        }
        files.erase(files.begin() + op->file);
        return;
      }
    }
  }

  octo::Result<std::string> Pread(const std::string& path) {
    if (use_layered_) return layered_.Pread(path, 0, kFileBytes);
    OCTO_ASSIGN_OR_RETURN(std::unique_ptr<octo::FileReader> reader,
                          fs_.Open(path));
    return reader->Pread(0, kFileBytes);
  }

  void Fail(std::string why) {
    if (failures_.size() < 10) failures_.push_back(std::move(why));
    ++failed_;
  }

  const int index_;
  const uint64_t seed_;
  octo::FileSystem fs_;
  LayeredClient layered_;
  Rng rng_;
  Model model_;
  bool use_layered_ = false;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t bytes_moved_ = 0;
  std::vector<std::string> failures_;
};

/// The master's control loop, run on the calling thread: every
/// kControlPeriodNs, heartbeats from every worker and one
/// replication-monitor round. The cadence carries over from one phase to
/// the next.
class ControlLoop {
 public:
  explicit ControlLoop(octo::Cluster* cluster) : cluster_(cluster) {}

  /// Runs rounds on the fixed cadence until `end_ns`.
  void RunUntil(int64_t end_ns) {
    UsePreciseSleeps();
    if (next_ns_ == 0) next_ns_ = NowNs() + kControlPeriodNs;
    while (true) {
      {
        Span span("workload.control.wait");
        if (next_ns_ >= end_ns) {
          SleepUntilNs(end_ns);
          return;
        }
        SleepUntilNs(next_ns_);
      }
      Round();
      next_ns_ += kControlPeriodNs;
      // A round that overran its slot does not queue back-to-back rounds.
      next_ns_ = std::max(next_ns_, NowNs());
    }
  }

  const std::vector<double>& monitor_blocks() const { return monitor_blocks_; }
  int64_t rounds() const { return rounds_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  void Round() {
    ++rounds_;
    {
      Span span("cluster.heartbeat_round");
      auto executed = cluster_->PumpHeartbeats();
      if (!executed.ok() && failures_.size() < 10) {
        failures_.push_back("heartbeats: " + executed.status().ToString());
      }
    }
    if (Tracer::enabled()) {
      monitor_blocks_.push_back(
          static_cast<double>(cluster_->master()->block_manager().NumBlocks()));
    }
    Span span("cluster.repair.monitor_round");
    cluster_->master()->RunReplicationMonitor();
  }

  octo::Cluster* cluster_;
  int64_t next_ns_ = 0;
  int64_t rounds_ = 0;
  std::vector<double> monitor_blocks_;
  std::vector<std::string> failures_;
};

/// Creates a cluster whose master journals into a fresh directory under
/// `work_dir`, then preloads the namespace: kDirs directories and
/// kPreloadFiles files spread round-robin over them.
std::unique_ptr<octo::Cluster> SetUp(
    const Options& options, int attempt, int num_threads,
    std::vector<std::unique_ptr<ClientThread>>* threads, Report* report) {
  std::filesystem::path meta =
      std::filesystem::path(options.work_dir) /
      ("small_files_meta_" + std::to_string(attempt));
  std::filesystem::remove_all(meta);
  octo::ClusterSpec spec = octo::PaperClusterSpec();
  spec.with_simulation = false;
  spec.master.seed = options.seed;
  spec.master.metadata_dir = meta.string();
  auto created = octo::Cluster::Create(spec);
  if (!created.ok()) {
    std::fprintf(stderr, "cluster: %s\n", created.status().ToString().c_str());
    std::exit(1);
  }
  std::unique_ptr<octo::Cluster> cluster = std::move(created).value();

  threads->clear();
  for (int t = 0; t < num_threads; ++t) {
    threads->push_back(
        std::make_unique<ClientThread>(cluster.get(), t, options.seed));
  }
  std::vector<int> slot(kDirs);
  Tracer::SetEnabled(options.trace);  // namespacefs.mkdirs_us
  for (int d = 0; d < kDirs; ++d) {
    ClientThread& owner = *(*threads)[static_cast<size_t>(d % num_threads)];
    slot[static_cast<size_t>(d)] = static_cast<int>(owner.model().dirs.size());
    owner.model().dirs.push_back(d);
    owner.model().files.emplace_back();
    report->Attempt();
    octo::Status st = options.trace ? owner.layered().Mkdirs(DirPath(d))
                                    : owner.fs().Mkdirs(DirPath(d));
    if (!st.ok()) report->Fail("mkdirs: " + st.ToString());
  }
  Tracer::SetEnabled(false);
  std::string payload;
  octo::FileSystem& fs = (*threads)[0]->fs();
  for (int f = 0; f < kPreloadFiles; ++f) {
    int d = f % kDirs;
    ClientThread& owner = *(*threads)[static_cast<size_t>(d % num_threads)];
    FileEntry entry{FileName(static_cast<uint64_t>(f)),
                    static_cast<uint64_t>(f), false};
    FillPayload(options.seed, entry.stream, &payload, kFileBytes);
    report->Attempt();
    octo::Status st = fs.WriteFile(DirPath(d) + "/" + entry.name, payload,
                                   FileOptions());
    if (!st.ok()) {
      report->Fail("preload: " + st.ToString());
      continue;
    }
    owner.model().files[static_cast<size_t>(slot[static_cast<size_t>(d)])]
        .push_back(entry);
  }
  return cluster;
}

/// Compares every directory listing with the model the applied
/// operations predict; in a traced run, also reads back through
/// FileSystem every file the LayeredClient wrote.
void CheckNamespace(octo::FileSystem& fs,
                    const std::vector<std::unique_ptr<ClientThread>>& threads,
                    uint64_t seed, bool traced, Report* report) {
  int64_t expected_files = 0;
  int64_t listed_files = 0;
  std::string payload;
  for (const auto& thread : threads) {
    const Model& model = thread->model();
    for (size_t i = 0; i < model.dirs.size(); ++i) {
      std::vector<std::string> want;
      for (const FileEntry& e : model.files[i]) want.push_back(e.name);
      std::sort(want.begin(), want.end());
      expected_files += static_cast<int64_t>(want.size());
      report->Attempt();
      auto listing = fs.ListDirectory(DirPath(model.dirs[i]));
      if (!listing.ok()) {
        report->Fail("final listing: " + listing.status().ToString());
        continue;
      }
      std::vector<std::string> got;
      for (const octo::FileStatus& st : *listing) {
        got.push_back(st.path.substr(st.path.rfind('/') + 1));
      }
      std::sort(got.begin(), got.end());
      listed_files += static_cast<int64_t>(got.size());
      if (got != want) {
        report->Fail("final listing of " + DirPath(model.dirs[i]) +
                     " differs from the op log");
      }
      if (!traced) continue;
      for (const FileEntry& e : model.files[i]) {
        if (!e.layered) continue;
        std::string path = DirPath(model.dirs[i]) + "/" + e.name;
        report->Attempt();
        auto data = fs.ReadFile(path);
        FillPayload(seed, e.stream, &payload, kFileBytes);
        if (!data.ok() || *data != payload) {
          report->Fail("FileSystem read-back of layered write " + path);
        }
      }
    }
  }
  report->Attempt();
  if (listed_files != expected_files) {
    report->Fail("final file count " + std::to_string(listed_files) +
                 " != predicted " + std::to_string(expected_files));
  }
}

}  // namespace

void RunSmallFiles(const Options& options, Report* report) {
  // Client threads plus this thread (the control loop) use at most one
  // core each.
  const int num_threads = std::max(1, options.host_cores - 1);
  std::vector<std::unique_ptr<ClientThread>> threads;
  std::unique_ptr<octo::Cluster> cluster;
  std::vector<double> setup_s;
  for (int attempt = 0; attempt < kSetups; ++attempt) {
    threads.clear();
    cluster.reset();
    int64_t start = NowNs();
    cluster = SetUp(options, attempt, num_threads, &threads, report);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  report->Add("setup_s", Median(setup_s), "s", kSetups);

  ControlLoop control(cluster.get());
  std::vector<Phase> phases;
  // Runs `body` on every client thread while this thread runs the
  // control loop until `end_ns`.
  auto run_phase = [&](const char* name, int64_t end_ns,
                       const std::function<void(ClientThread*)>& body) {
    int64_t start = NowNs();
    std::vector<std::thread> workers;
    for (auto& thread : threads) {
      workers.emplace_back([&body, t = thread.get()] { body(t); });
    }
    control.RunUntil(end_ns);
    for (std::thread& w : workers) w.join();
    // The phase ends when it is due to; a control round or an operation
    // still running then is counted whole.
    if (Tracer::enabled()) {
      phases.push_back({name, start, end_ns, num_threads + 1});
    }
  };
  auto set_traced = [&](bool traced) {
    Tracer::SetEnabled(traced);
    for (auto& thread : threads) thread->set_layered(traced);
  };

  // Closed loop for `length_ns`; appends, for each whole window, the
  // completion rate and the MB/s that creates wrote and preads read.
  struct Capacity {
    std::vector<double> ops_per_s, write_mbps, read_mbps;
  };
  auto measure_capacity = [&](int64_t length_ns, Capacity* out) {
    std::vector<std::vector<Completion>> completions(threads.size());
    const int64_t start = NowNs();
    const int64_t end = start + length_ns;
    run_phase("capacity", end, [&](ClientThread* t) {
      t->RunClosed(end, &completions[static_cast<size_t>(t->index())]);
    });
    const size_t windows = static_cast<size_t>(length_ns / kWindowNs);
    std::vector<double> ops(windows, 0), written(windows, 0), read(windows, 0);
    for (const auto& per_thread : completions) {
      for (const Completion& done : per_thread) {
        size_t w = static_cast<size_t>((done.ns - start) / kWindowNs);
        if (w >= windows) continue;
        ops[w] += 1;
        if (done.kind == OpKind::kCreate) written[w] += kFileBytes;
        if (done.kind == OpKind::kPread) read[w] += kFileBytes;
      }
    }
    const double window_s = static_cast<double>(kWindowNs) / 1e9;
    for (size_t w = 0; w < windows; ++w) {
      out->ops_per_s.push_back(ops[w] / window_s);
      out->write_mbps.push_back(written[w] / window_s / 1e6);
      out->read_mbps.push_back(read[w] / window_s / 1e6);
    }
  };

  // The run is kCycles cycles of a capacity phase then a paced phase, so
  // each metric samples the whole run rather than one half of it.
  const int64_t cycle_ns =
      static_cast<int64_t>(options.seconds * 1e9) / kCycles;
  const int64_t capacity_ns = static_cast<int64_t>(cycle_ns * kCapacityShare);
  Capacity capacity, traced_capacity;
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  std::vector<std::vector<double>> latency(threads.size());
  std::vector<std::vector<double>> late(threads.size());
  int64_t paced_bytes = 0;
  int64_t paced_faults = 0;
  int64_t paced_ns = 0;
  auto bytes_moved = [&] {
    int64_t bytes = 0;
    for (auto& thread : threads) bytes += thread->bytes_moved();
    return bytes;
  };
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    // A traced run measures capacity twice, untraced (FileSystem) and then
    // traced (LayeredClient), so trace.overhead compares the two.
    set_traced(false);
    measure_capacity(options.trace ? capacity_ns / 2 : capacity_ns,
                     &capacity);
    if (options.trace) {
      set_traced(true);
      measure_capacity(capacity_ns / 2, &traced_capacity);
    }

    const int64_t bytes_before = bytes_moved();
    const int64_t faults_before = MinorFaults();
    const int64_t paced_start = NowNs();
    const int64_t paced_end = paced_start + (cycle_ns - capacity_ns);
    run_phase("paced", paced_end, [&](ClientThread* t) {
      size_t i = static_cast<size_t>(t->index());
      t->RunPaced(paced_start, paced_end, num_threads, &latency[i], &late[i]);
    });
    paced_faults += MinorFaults() - faults_before;
    paced_ns += NowNs() - paced_start;
    paced_bytes += bytes_moved() - bytes_before;
  }
  set_traced(false);

  std::vector<double> all_latency, all_late;
  for (size_t i = 0; i < threads.size(); ++i) {
    append(&all_latency, latency[i]);
    append(&all_late, late[i]);
    const ClientThread& t = *threads[i];
    report->Attempt(t.attempted());
    for (int64_t f = 0; f < t.failed(); ++f) {
      report->Fail(f < static_cast<int64_t>(t.failures().size())
                       ? t.failures()[static_cast<size_t>(f)]
                       : "operation failed");
    }
  }
  report->Attempt(control.rounds());
  for (const std::string& why : control.failures()) report->Fail(why);
  CheckNamespace(threads[0]->fs(), threads, options.seed, options.trace,
                 report);

  auto n = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  if (!options.trace) {
    report->Add("write_mbps", Median(capacity.write_mbps), "MB/s",
                n(capacity.write_mbps));
    report->Add("read_mbps", Median(capacity.read_mbps), "MB/s",
                n(capacity.read_mbps));
    report->Add("ops_per_s", Median(capacity.ops_per_s), "ops/s",
                n(capacity.ops_per_s));
    report->Add("op_p50_ms", Median(all_latency), "ms", n(all_latency));
    report->Add("op_p99_ms", Percentile(all_latency, 0.99), "ms",
                n(all_latency));
    return;
  }

  // Crc32c over buffers of this workload's size.
  Tracer::SetEnabled(true);
  std::string payload;
  for (uint64_t i = 0; i < 1024; ++i) {
    FillPayload(options.seed, i, &payload, kFileBytes);
    Span call("storage.crc32c");
    volatile uint32_t crc = octo::Crc32c(payload);
    (void)crc;
  }
  Tracer::SetEnabled(false);
  std::vector<SpanRecord> spans = Tracer::Collect();
  std::vector<double> crc_mbps;
  for (double us : DurationsUs(spans, "storage.crc32c")) {
    crc_mbps.push_back(static_cast<double>(kFileBytes) / us);
  }
  report->Add("storage.crc32c_mbps", Median(crc_mbps), "MB/s", n(crc_mbps));
  int64_t asked = 0, returned = 0;
  for (auto& thread : threads) {
    asked += thread->layered().pread_bytes_asked();
    returned += thread->layered().pread_bytes_returned();
  }
  report->Add("cluster.worker.read_amplification",
              asked > 0 ? static_cast<double>(returned) / asked : 0, "ratio",
              asked / kFileBytes);
  const double mib_moved = static_cast<double>(paced_bytes) / octo::kMiB;
  report->Add("process.minor_faults_per_mib",
              mib_moved > 0 ? static_cast<double>(paced_faults) / mib_moved : 0,
              "count/MiB", paced_bytes / octo::kMiB);
  report->Add("workload.loadgen.late_p99_ms", Percentile(all_late, 0.99), "ms",
              n(all_late));
  report->Add("workload.loadgen.achieved_over_offered",
              static_cast<double>(all_latency.size()) /
                  (kOfferedOpsPerSec * static_cast<double>(paced_ns) / 1e9),
              "ratio", n(all_latency));
  report->Add("trace.overhead",
              Median(capacity.ops_per_s) / Median(traced_capacity.ops_per_s) -
                  1,
              "ratio", n(traced_capacity.ops_per_s));
  AddSharedLayerMetrics(spans, control.monitor_blocks(), report);
  ReportAttribution(spans, phases, report);
  if (!options.trace_out.empty() &&
      !Tracer::WriteChromeTrace(options.trace_out, spans)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
  }
}

}  // namespace perfbench
