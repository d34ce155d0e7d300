#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "report.h"

namespace perfbench {

/// Real-byte write, scan and cold 4 KiB pread through one client.
void RunDatapath(const Options& options, Report* report);

/// Namespace-heavy small-file traffic beside the master's control loop:
/// a closed-loop capacity phase, then an open-loop paced phase.
void RunSmallFiles(const Options& options, Report* report);

/// The paper's §7 DFSIO write-then-read in virtual time.
void RunPaperDfsio(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
