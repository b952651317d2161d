// The four benchmark workloads (README.md, "Workloads"): input generation
// from the seed, the untraced measurement loop over the library's public
// entry points, the traced replay that records spans around each layer's
// public calls, and the output checks.
#ifndef HOSTBENCH_WORKLOADS_H_
#define HOSTBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace hostbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  // false: measure the end-to-end metrics. true: measure the per-layer
  // metrics, spending half the time on untraced iterations (the base of
  // trace.overhead_frac and the digests the replay must reproduce) and half
  // on the traced replay.
  bool trace = false;
  // Scratch directory for checkpoints and the Chrome trace.
  std::string out_dir = ".";
};

struct RunOutcome {
  // Catalogue order: every end-to-end metric, or every per-layer metric.
  std::vector<std::pair<std::string, double>> metrics;
  uint64_t attempted = 0;  // devices simulated + firmwares built
  uint64_t failed = 0;     // of those, the ones that errored or failed a check
  std::vector<std::string> problems;
  std::string report;  // human-readable tables
};

amulet::Result<RunOutcome> RunWorkload(const RunArgs& args);

}  // namespace hostbench

#endif  // HOSTBENCH_WORKLOADS_H_
