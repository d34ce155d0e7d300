#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// One finished span. `name` is "<layer>.<call>", where <layer> is the
/// repository module the call enters (client, cluster, namespacefs,
/// storage, core, sim, workload).
struct SpanRecord {
  const char* name = nullptr;  // string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Duration minus the time covered by direct child spans.
  int64_t self_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 for a root span
  uint64_t request = 0;  // id of the root span: one per benchmark operation
  uint32_t tid = 0;
};

/// Process-wide span recorder. Off by default, when a Span costs one
/// branch. Each thread appends to its own buffer, so recording takes no
/// lock after a thread's first span; buffers outlive their threads.
class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled();
  /// Every span finished so far, from every thread, ordered by start.
  /// Call only while no thread is recording.
  static std::vector<SpanRecord> Collect();
  /// Writes `spans` as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps; parent and request ids in args).
  static bool WriteChromeTrace(const std::string& path,
                               const std::vector<SpanRecord>& spans);
};

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

/// The layer of a span name: its text up to the first '.'.
std::string LayerOf(const char* name);

/// Whether a span is the load generator sleeping ("<layer>.<...>.wait"):
/// idle time, not work done in any layer.
bool IsWait(const char* name);

/// SelfByLayer's key for the self time of wait spans.
inline constexpr const char* kIdle = "idle";

/// Durations in microseconds of the spans called `name`.
std::vector<double> DurationsUs(const std::vector<SpanRecord>& spans,
                                const char* name);
/// Self times in microseconds of the spans called `name`.
std::vector<double> SelfUs(const std::vector<SpanRecord>& spans,
                           const char* name);

/// A stretch of the traced run whose wall time the spans should account
/// for: `threads` threads were driving operations from start to end.
struct Phase {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int threads = 1;
};

/// Self time (ns) per layer of the spans that start inside `phase`; the
/// wait spans' time is keyed kIdle instead of by layer.
std::map<std::string, int64_t> SelfByLayer(const std::vector<SpanRecord>& spans,
                                           const Phase& phase);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
