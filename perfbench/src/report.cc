#include "report.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

namespace perfbench {

void Report::Add(std::string name, double value, std::string unit,
                 int64_t samples) {
  metrics_.push_back(
      Metric{std::move(name), value, std::move(unit), samples});
}

void Report::Fail(const std::string& why) {
  ++failed_;
  if (errors_.size() < 10) errors_.push_back(why);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  size_t index = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(index),
                   v.end());
  return v[index];
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void FillPayload(uint64_t seed, uint64_t stream, std::string* out,
                 size_t size) {
  out->resize(size);
  Rng rng(seed * 0x100000001B3ull ^ (stream + 1) * 0xC2B2AE3D27D4EB4Full);
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word = rng.Next();
    std::memcpy(out->data() + i, &word, 8);
  }
  uint64_t tail = rng.Next();
  std::memcpy(out->data() + i, &tail, size - i);
}

int64_t MinorFaults() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

void SleepUntilNs(int64_t deadline_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(deadline_ns)));
}

void UsePreciseSleeps() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void AddSharedLayerMetrics(const std::vector<SpanRecord>& spans,
                           const std::vector<double>& monitor_blocks,
                           Report* report) {
  auto n = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  auto p50_p99 = [&](const std::string& metric, const char* span) {
    std::vector<double> us = DurationsUs(spans, span);
    report->Add(metric + ".p50", Median(us), "us", n(us));
    report->Add(metric + ".p99", Percentile(us, 0.99), "us", n(us));
  };
  for (const char* call : {"create", "mkdirs", "rename", "delete",
                           "get_file_status", "list_directory"}) {
    std::string span = std::string("namespacefs.") + call;
    p50_p99(span + "_us", span.c_str());
  }
  for (const char* call :
       {"add_block", "commit_block", "complete_file", "get_block_locations"}) {
    std::string span = std::string("cluster.master.") + call;
    p50_p99(span + "_us", span.c_str());
  }
  auto median = [&](const char* metric, const char* span, double scale,
                    const char* unit) {
    std::vector<double> us = DurationsUs(spans, span);
    report->Add(metric, Median(us) * scale, unit, n(us));
  };
  median("cluster.worker.write_packet_us", "cluster.worker.write_packet", 1,
         "us");
  median("cluster.worker.finalize_block_us", "cluster.worker.finalize_block",
         1, "us");
  median("cluster.worker.read_block_ms", "cluster.worker.read_block", 1e-3,
         "ms");
  median("cluster.heartbeat_round_ms", "cluster.heartbeat_round", 1e-3, "ms");

  std::vector<double> rounds =
      DurationsUs(spans, "cluster.repair.monitor_round");
  std::vector<double> rounds_ms;
  std::vector<double> us_per_block;
  for (size_t i = 0; i < rounds.size(); ++i) {
    rounds_ms.push_back(rounds[i] / 1e3);
    if (i < monitor_blocks.size() && monitor_blocks[i] > 0) {
      us_per_block.push_back(rounds[i] / monitor_blocks[i]);
    }
  }
  report->Add("cluster.repair.monitor_round_ms.p50", Median(rounds_ms), "ms",
              n(rounds_ms));
  report->Add("cluster.repair.monitor_round_ms.max", Max(rounds_ms), "ms",
              n(rounds_ms));
  report->Add("cluster.repair.monitor_us_per_block", Median(us_per_block),
              "us", n(us_per_block));

  for (const char* op : {"write_file", "pread"}) {
    std::string span = std::string("client.") + op;
    std::vector<double> self = SelfUs(spans, span.c_str());
    report->Add(span + ".self_ms", Median(self) / 1e3, "ms", n(self));
  }
}

void ReportAttribution(const std::vector<SpanRecord>& spans,
                       const std::vector<Phase>& phases, Report* report) {
  // Phases of one name (one per round) are summed. Wait spans are the
  // load generator sleeping: their time is neither work of a layer nor
  // time the spans must account for.
  std::map<std::string, std::map<std::string, int64_t>> self_by_phase;
  std::map<std::string, double> wall_by_phase;
  std::map<std::string, int64_t> idle_by_phase;
  std::map<std::string, int64_t> total_by_layer;
  int64_t total_self = 0;
  for (const Phase& phase : phases) {
    wall_by_phase[phase.name] +=
        static_cast<double>(phase.end_ns - phase.start_ns) * phase.threads;
    for (const auto& [layer, ns] : SelfByLayer(spans, phase)) {
      if (layer == kIdle) {
        idle_by_phase[phase.name] += ns;
        continue;
      }
      self_by_phase[phase.name][layer] += ns;
      total_by_layer[layer] += ns;
      total_self += ns;
    }
  }
  double coverage = phases.empty() ? 0 : 1e300;
  std::printf(
      "\nper-layer self time (ms) by phase; wall = wall time x threads, "
      "busy = wall - idle\n");
  std::printf("%-10s %10s %10s %8s  %s\n", "phase", "wall_ms", "idle_ms",
              "coverage", "self time per layer");
  for (const auto& [name, wall] : wall_by_phase) {
    int64_t self = 0;
    for (const auto& [layer, ns] : self_by_phase[name]) self += ns;
    const double idle = static_cast<double>(idle_by_phase[name]);
    const double busy = wall - idle;
    double phase_coverage = busy > 0 ? static_cast<double>(self) / busy : 0;
    coverage = std::min(coverage, phase_coverage);
    std::printf("%-10s %10.1f %10.1f %8.3f ", name.c_str(), wall / 1e6,
                idle / 1e6, phase_coverage);
    for (const auto& [layer, ns] : self_by_phase[name]) {
      std::printf(" %s=%.1f", layer.c_str(), static_cast<double>(ns) / 1e6);
    }
    std::printf("\n");
  }
  report->Add("trace.coverage", coverage, "ratio",
              static_cast<int64_t>(phases.size()));
  for (const auto& [layer, ns] : total_by_layer) {
    report->Add("trace.self_share." + layer,
                total_self > 0 ? static_cast<double>(ns) / total_self : 0,
                "ratio", static_cast<int64_t>(spans.size()));
  }
}

}  // namespace perfbench
