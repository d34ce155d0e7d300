#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

struct OpenSpan {
  const char* name;
  int64_t start_ns;
  uint64_t id;
  int64_t child_ns;
};

struct ThreadBuffer {
  uint32_t tid = 0;
  uint64_t next_id = 1;
  std::vector<OpenSpan> stack;
  std::vector<SpanRecord> done;
};

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;  // guarded by mu

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_registry.back().get();
    buffer->tid = static_cast<uint32_t>(g_registry.size());
  }
  return buffer;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> Tracer::Collect() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : g_registry) {
    all.insert(all.end(), buffer->done.begin(), buffer->done.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}%s\n",
                 s.name, LayerOf(s.name).c_str(), s.tid,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name) : active_(Tracer::enabled()) {
  if (!active_) return;
  ThreadBuffer* buffer = LocalBuffer();
  uint64_t id = (static_cast<uint64_t>(buffer->tid) << 40) | buffer->next_id++;
  buffer->stack.push_back(OpenSpan{name, NowNs(), id, 0});
}

Span::~Span() {
  if (!active_) return;
  int64_t end = NowNs();
  ThreadBuffer* buffer = LocalBuffer();
  OpenSpan open = buffer->stack.back();
  buffer->stack.pop_back();
  int64_t duration = end - open.start_ns;
  SpanRecord record;
  record.name = open.name;
  record.start_ns = open.start_ns;
  record.end_ns = end;
  record.self_ns = duration - open.child_ns;
  record.id = open.id;
  if (buffer->stack.empty()) {
    record.request = open.id;
  } else {
    OpenSpan& parent = buffer->stack.back();
    parent.child_ns += duration;
    record.parent = parent.id;
    record.request = buffer->stack.front().id;
  }
  record.tid = buffer->tid;
  buffer->done.push_back(record);
}

std::string LayerOf(const char* name) {
  std::string s(name);
  size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

bool IsWait(const char* name) {
  std::string s(name);
  return s.size() >= 5 && s.compare(s.size() - 5, 5, ".wait") == 0;
}

std::vector<double> DurationsUs(const std::vector<SpanRecord>& spans,
                                const char* name) {
  std::string wanted(name);
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (wanted == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> SelfUs(const std::vector<SpanRecord>& spans,
                           const char* name) {
  std::string wanted(name);
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (wanted == s.name) out.push_back(static_cast<double>(s.self_ns) / 1e3);
  }
  return out;
}

std::map<std::string, int64_t> SelfByLayer(
    const std::vector<SpanRecord>& spans, const Phase& phase) {
  std::map<std::string, int64_t> by_layer;
  for (const SpanRecord& s : spans) {
    if (s.start_ns >= phase.start_ns && s.start_ns < phase.end_ns) {
      by_layer[IsWait(s.name) ? kIdle : LayerOf(s.name)] += s.self_ns;
    }
  }
  return by_layer;
}

}  // namespace perfbench
