// hostbench: host-time benchmark harness (README.md here).
//
//   hostbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//   hostbench --describe     # prints the BENCHMARK.json document
//
// Prints human-readable tables, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when an output
// check failed or the workload errored, 2 on bad arguments.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "hostbench/bench_core.h"
#include "hostbench/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] | --describe\n",
               why);
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

void PrintResult(bool correct, unsigned long long attempted, unsigned long long failed,
                 const std::vector<std::pair<std::string, double>>& metrics,
                 const std::vector<hostbench::MetricSpec>& catalogue) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metrics[i].second);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].first + "\": {\"value\": " + value +
            ", \"unit\": \"" + catalogue[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // glibc's dynamic mmap and trim thresholds make the cost of the simulator's
  // per-device allocations (a 1.3 MB predecode cache per Machine) depend on
  // where earlier allocations left the heap top: freed blocks are either
  // reused or trimmed and faulted in again. The same workload ran a third
  // slower or faster depending on the seed-driven heap layout. Pinning both
  // thresholds (heap blocks up to 64 MiB, never trim) gives every run the
  // reuse regime a long-running process settles in.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  hostbench::RunArgs args;
  bool have_workload = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--describe") {
      std::printf("%s", hostbench::BenchmarkJson().c_str());
      return 0;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseNumber(value, &number) && number >= 0) {
      args.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds" && ParseNumber(value, &number) && number > 0 &&
               number <= 3600) {
      args.seconds = number;
    } else if (flag == "--trace" && (std::string(value) == "0" || std::string(value) == "1")) {
      args.trace = std::string(value) == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  if (!have_workload || !have_trace) {
    return Usage("--workload and --trace are required");
  }
  const std::vector<hostbench::MetricSpec>& catalogue =
      args.trace ? hostbench::PerLayerMetrics() : hostbench::EndToEndMetrics();
  for (const hostbench::MetricSpec& m : catalogue) {
    if (!hostbench::ValidMetricName(m.name)) {
      std::fprintf(stderr, "hostbench: invalid metric name '%s'\n", m.name);
      return 2;
    }
  }

  amulet::Result<hostbench::RunOutcome> outcome = hostbench::RunWorkload(args);
  if (!outcome.ok()) {
    std::fprintf(stderr, "hostbench: %s: %s\n", args.workload.c_str(),
                 outcome.status().ToString().c_str());
    // The run could not finish; report it as one failed attempt.
    std::vector<std::pair<std::string, double>> none;
    for (const hostbench::MetricSpec& m : catalogue) {
      none.emplace_back(m.name, 0.0);
    }
    std::fflush(stdout);
    PrintResult(false, 1, 1, none, catalogue);
    return 1;
  }
  std::printf("%s", outcome->report.c_str());
  for (const std::string& problem : outcome->problems) {
    std::fprintf(stderr, "hostbench: check failed: %s\n", problem.c_str());
  }
  const bool correct = outcome->failed == 0;
  std::printf("failed_frac %.6g (%llu of %llu attempted)\n",
              static_cast<double>(outcome->failed) /
                  static_cast<double>(std::max<uint64_t>(1, outcome->attempted)),
              static_cast<unsigned long long>(outcome->failed),
              static_cast<unsigned long long>(outcome->attempted));
  PrintResult(correct, outcome->attempted, outcome->failed, outcome->metrics, catalogue);
  return correct ? 0 : 1;
}
