// Pure logic of the host-time benchmark: the metric catalogue that
// BENCHMARK.json is generated from, order statistics, metric-name
// validation, and span self-time attribution. No simulator dependency, so
// bench_core_test.cc covers it directly.
#ifndef HOSTBENCH_BENCH_CORE_H_
#define HOSTBENCH_BENCH_CORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hostbench {

struct WorkloadSpec {
  const char* name;
  const char* why;
};

// `bound` is the share of the parent's median by which an end-to-end metric
// may worsen before a change counts as a regression; per-layer metrics carry
// no bound (0 here).
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "higher" or "lower"
  double bound;
};

const std::vector<WorkloadSpec>& Workloads();
// Printed by every untraced run, for every workload.
const std::vector<MetricSpec>& EndToEndMetrics();
// Printed by every traced run, for every workload; a layer a workload does
// not exercise reads 0.
const std::vector<MetricSpec>& PerLayerMetrics();

// The BENCHMARK.json document describing the catalogue above.
std::string BenchmarkJson();

// Metric names: 1..64 characters of [A-Za-z0-9_.-], starting with a letter
// or digit.
bool ValidMetricName(std::string_view name);

// Nearest-rank percentile (p in (0, 100]): the sample at 1-based rank
// ceil(p/100 * n) of the sorted samples. Requires a non-empty input.
double NearestRank(std::vector<double> samples, double p);

// A percentile is reported without a warning only when at least ten
// samples lie beyond its nearest rank: n - ceil(p/100 * n) >= 10.
bool PercentileSupported(size_t n, double p);

// Middle sample, or the mean of the middle pair; 0 for no samples.
double Median(std::vector<double> samples);

// Host-speed calibration. The shared hosts this benchmark runs on drift by
// up to ~1.6x in speed over minutes, which no amount of repetition inside a
// run averages out. Every measured iteration is therefore bracketed by a
// fixed, repository-independent kernel (random read-modify-write over a
// 1 MiB table per thread, the memory behaviour the simulator is most
// sensitive to) run on `threads` threads just before and just after it, and
// the end-to-end times are reported at the kernel's reference speed:
//   normalized time = raw time * kReferenceKernelSeconds / mean kernel seconds.
// The raw figures are printed beside them. Build times are process CPU
// time (see ProcessCpuNs), so they are normalized by the kernel's CPU time,
// returned in *cpu_s when given.
inline constexpr double kReferenceKernelSeconds = 0.035;
double CalibrationKernelSeconds(int threads, double* cpu_s = nullptr);

// CPU time consumed by every thread of this process, in nanoseconds. Unlike
// wall time it leaves out time spent waiting for a CPU: preemption by other
// processes and, on a paravirtualized guest, time the host gave the vCPU
// to someone else (steal). A build of a few milliseconds hit by one such
// wait would otherwise read as a slow build.
int64_t ProcessCpuNs();

// One timed interval. `parent` is 0 for a root; spans on other threads may
// name a parent on the recording thread (a worker's device span under the
// fleet's run-phase span).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  uint32_t tid = 0;
  int64_t device = -1;  // device id, -1 when the span is not per device
  int64_t t0_ns = 0;
  int64_t t1_ns = 0;
};

// Self time per span name in nanoseconds: each span's duration minus the
// part of its interval covered by the union of its children's intervals.
// Children running concurrently on several threads are merged first, so
// overlapping children are not subtracted twice.
std::map<std::string, int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace hostbench

#endif  // HOSTBENCH_BENCH_CORE_H_
