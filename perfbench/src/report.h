#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// What one invocation runs.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory the run may write (the small_files journal).
  std::string work_dir;
  /// Where a traced run writes its Chrome trace ("" = nowhere).
  std::string trace_out;
  int host_cores = 1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;
};

/// Everything a workload run produces: its metrics, the operations it
/// attempted, and every operation that failed or returned wrong bytes.
class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           int64_t samples);
  /// Counts `n` attempted operations (output checks count as operations).
  void Attempt(int64_t n = 1) { attempted_ += n; }
  /// Counts one attempted operation as failed — it returned an error or
  /// wrong bytes — and keeps the reason (the first few are printed).
  void Fail(const std::string& why);

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& errors() const { return errors_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Nearest-rank percentile (p in [0, 1]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}
double Max(const std::vector<double>& v);

/// Deterministic bytes for (seed, stream): the content of one file.
void FillPayload(uint64_t seed, uint64_t stream, std::string* out,
                 size_t size);

/// splitmix64: the benchmark's seeded generator.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Minor page faults of this process so far (getrusage).
int64_t MinorFaults();

/// Sleeps until the steady-clock instant `deadline_ns`.
void SleepUntilNs(int64_t deadline_ns);

/// Makes the calling thread's sleeps end on time (timer slack of 1 ns
/// instead of Linux's default 50 us), so a paced generator issues each
/// operation when it is due.
void UsePreciseSleeps();

/// Adds the per-call latency metrics both wall-clock workloads report
/// from their spans: namespace RPCs, master block RPCs, worker data-plane
/// calls, the control loop, and the client's own (self) time.
/// `monitor_blocks` holds the master's block count at each traced
/// replication-monitor round, in round order.
void AddSharedLayerMetrics(const std::vector<SpanRecord>& spans,
                           const std::vector<double>& monitor_blocks,
                           Report* report);

/// Adds the traced run's attribution metrics: trace.coverage (the
/// lowest, over `phases`, of summed span self time over busy time, i.e.
/// phase wall time times threads minus the time threads spent in wait
/// spans) and trace.self_share.<layer> (each layer's share of the busy
/// self time inside the phases), and prints the per-layer self-time
/// table with the idle time beside it.
void ReportAttribution(const std::vector<SpanRecord>& spans,
                       const std::vector<Phase>& phases, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
