// perfbench: runs one workload and prints its metrics as one JSON line.
//
//   perfbench --workload datapath|small_files|paper_dfsio --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
//
// perfbench/run.py builds this program, runs it and turns the JSON line
// into the benchmark's result.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::printf("\\%c", c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("missing value");
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      options.work_dir = value;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      options.trace_out = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (options.seconds <= 0) Usage("--seconds must be positive");
  if (options.work_dir.empty()) Usage("--work-dir is required");
  // Like nproc: the CPUs this process may run on.
  cpu_set_t cpus;
  options.host_cores =
      sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 1;

  perfbench::Report report;
  if (options.workload == "datapath") {
    perfbench::RunDatapath(options, &report);
  } else if (options.workload == "small_files") {
    perfbench::RunSmallFiles(options, &report);
  } else if (options.workload == "paper_dfsio") {
    perfbench::RunPaperDfsio(options, &report);
  } else {
    Usage("unknown workload");
  }
  report.Add("host_cores", options.host_cores, "count", 1);

  std::printf("{\"attempted\": %lld, \"failed\": %lld, \"errors\": [",
              static_cast<long long>(report.attempted()),
              static_cast<long long>(report.failed()));
  for (size_t i = 0; i < report.errors().size(); ++i) {
    if (i > 0) std::printf(", ");
    PrintJsonString(report.errors()[i]);
  }
  std::printf("], \"metrics\": {");
  for (size_t i = 0; i < report.metrics().size(); ++i) {
    const perfbench::Metric& m = report.metrics()[i];
    if (i > 0) std::printf(", ");
    PrintJsonString(m.name);
    // A ratio over an empty sample is not a number; JSON has no NaN.
    std::printf(": {\"value\": %.17g, \"unit\": ",
                std::isfinite(m.value) ? m.value : 0.0);
    PrintJsonString(m.unit);
    std::printf(", \"samples\": %lld}", static_cast<long long>(m.samples));
  }
  std::printf("}}\n");
  return report.failed() == 0 ? 0 : 1;
}
