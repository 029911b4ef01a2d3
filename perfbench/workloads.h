// The three perfbench workloads.  Each runs one of ALERT's runtimes through its real
// entry points for about `seconds`, checks the outputs, and returns a Report.
//
// Untraced (trace = false), a report carries the six end-to-end metrics every
// workload defines in its own terms (see perfbench/README.md):
//   setup_s, latency_ms_p50, latency_ms_p99, throughput_per_s, overhead_pct,
//   peak_rss_mb
// Traced, it carries the per-layer metrics of the layers that workload drives.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/bench_util.h"

namespace perfbench {

struct WorkloadContext {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;   // holds the alertd and sweep_shard binaries
  std::string work_dir;  // scratch inside the checkout (port files, checkpoints)
  int nproc = 4;         // connection / process limit for the load
};

Report RunEmbeddedLoop(const WorkloadContext& context);
Report RunAlertdChurn(const WorkloadContext& context);
Report RunSweepSocket(const WorkloadContext& context);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
