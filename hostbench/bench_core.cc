#include "hostbench/bench_core.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <thread>
#include <unordered_map>
#include <utility>

namespace hostbench {

namespace {

// Seconds one run measures (BENCHMARK.json "run_seconds").
constexpr int kRunSeconds = 20;

std::string JsonString(const char* s) {
  std::string out = "\"";
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\') {
      out += '\\';
    }
    out += *p;
  }
  return out + "\"";
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"fleet_steady",
       "serial 4-app MPU fleet, 2 s per device: the per-device execute path (fast core, bus "
       "observer, OS/HOSTIO) dominates and the executor is bypassed"},
      {"fleet_churn",
       "five cohorts of 100 ms devices on 4 threads with checkpoints and crasher faults: "
       "per-device fixed cost (clone, predecode fill, merge, checkpoint) dominates"},
      {"ota_campaign",
       "staged v1-to-v2 OTA rollout: two clones per device, simulated MAC verify, per-stage "
       "barriers; the second caller of the device-run loop"},
      {"toolchain_build",
       "seeded 1-9 app subsets built under all four memory models: the compile layers (lang, "
       "compiler, aft, asm) do all the work"},
  };
  return kWorkloads;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      // Bounds: ten-seed quartile spreads measured on a 4-vCPU shared host
      // were <= 0.10 for the device-path metrics, <= 0.12 for peak RSS
      // (allocator arenas of fleet_churn's worker threads) and <= 0.12 for
      // the build metrics, whose 3 ms samples feel host bursts most.
      // setup_s carries the largest bound.
      {"devices_per_s", "1/s", "higher", 0.2},
      {"sim_mips", "MIPS", "higher", 0.2},
      {"wall_s", "s", "lower", 0.2},
      {"setup_s", "s", "lower", 0.25},
      {"peak_rss_mb", "MB", "lower", 0.25},
      {"builds_per_s", "1/s", "higher", 0.25},
      {"build_ms_p50", "ms", "lower", 0.25},
      {"build_ms_p90", "ms", "lower", 0.25},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"lang.parse_ms", "ms", "lower", 0},
      {"lang.sema_ms", "ms", "lower", 0},
      {"compiler.lower_ms", "ms", "lower", 0},
      {"aft.checks_ms", "ms", "lower", 0},
      {"aft.opt_ms", "ms", "lower", 0},
      {"compiler.codegen_ms", "ms", "lower", 0},
      {"asm.assemble_ms", "ms", "lower", 0},
      {"aft.build_ms", "ms", "lower", 0},
      {"aft.checks_inserted", "count", "lower", 0},
      {"aft.checks_elided", "count", "higher", 0},
      {"aft.image_bytes", "B", "lower", 0},
      {"os.boot_ms", "ms", "lower", 0},
      {"mcu.snapshot_ms", "ms", "lower", 0},
      {"mcu.snapshot_bytes", "B", "lower", 0},
      {"fleet.clone_ms", "ms", "lower", 0},
      {"fleet.run_ms", "ms", "lower", 0},
      {"fleet.teardown_ms", "ms", "lower", 0},
      {"fleet.device_ms_p50", "ms", "lower", 0},
      {"fleet.device_ms_p99", "ms", "lower", 0},
      {"isa.predecode_fills", "count", "lower", 0},
      {"isa.cache_hit_ratio", "ratio", "higher", 0},
      {"isa.slow_path_frac", "ratio", "lower", 0},
      {"mcu.invalidations", "count", "lower", 0},
      {"mcu.instructions_per_device", "count", "lower", 0},
      {"mcu.bus_data_accesses_per_device", "count", "lower", 0},
      {"os.syscalls_per_device", "count", "lower", 0},
      {"os.dispatches_per_device", "count", "lower", 0},
      {"fleet.faults_recorded", "count", "lower", 0},
      {"scope.record_us", "us", "lower", 0},
      {"scope.merge_us", "us", "lower", 0},
      {"fleet.ledger_merge_us", "us", "lower", 0},
      {"fleet.merge_wait_us", "us", "lower", 0},
      {"fleet.checkpoint_ms", "ms", "lower", 0},
      {"fleet.checkpoint_bytes", "B", "lower", 0},
      {"fleet.checkpoints", "count", "lower", 0},
      {"fleet.worker_busy_frac", "ratio", "higher", 0},
      {"fleet.tail_ms", "ms", "lower", 0},
      {"ota.pack_ms", "ms", "lower", 0},
      {"ota.verify_ms", "ms", "lower", 0},
      {"ota.verify_cycles", "count", "lower", 0},
      {"fleet.stage_ms", "ms", "lower", 0},
      {"fleet.health_run_ms", "ms", "lower", 0},
      {"workload.devices", "count", "higher", 0},
      {"workload.builds", "count", "higher", 0},
      {"trace.overhead_frac", "ratio", "lower", 0},
      {"trace.attributed_frac", "ratio", "higher", 0},
  };
  return kMetrics;
}

std::string BenchmarkJson() {
  std::string out = "{\n";
  out += "  \"command\": [\"python3\", \"hostbench/run.py\"],\n";
  out += "  \"paths\": [\"hostbench\"],\n";
  out += "  \"run_seconds\": " + std::to_string(kRunSeconds) + ",\n";
  out += "  \"workloads\": [\n";
  const std::vector<WorkloadSpec>& workloads = Workloads();
  for (size_t i = 0; i < workloads.size(); ++i) {
    out += "    {\"name\": " + JsonString(workloads[i].name) +
           ", \"why\": " + JsonString(workloads[i].why) + "}";
    out += i + 1 < workloads.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  auto metric_list = [&](const char* key, const std::vector<MetricSpec>& metrics,
                         bool with_bound) {
    out += std::string("  \"") + key + "\": [\n";
    for (size_t i = 0; i < metrics.size(); ++i) {
      const MetricSpec& m = metrics[i];
      out += "    {\"name\": " + JsonString(m.name) + ", \"unit\": " + JsonString(m.unit) +
             ", \"better\": " + JsonString(m.better);
      if (with_bound) {
        char bound[32];
        std::snprintf(bound, sizeof(bound), "%g", m.bound);
        out += std::string(", \"bound\": ") + bound;
      }
      out += "}";
      out += i + 1 < metrics.size() ? ",\n" : "\n";
    }
    out += "  ]";
  };
  metric_list("end_to_end", EndToEndMetrics(), true);
  out += ",\n";
  metric_list("per_layer", PerLayerMetrics(), false);
  out += "\n}\n";
  return out;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) {
    return false;
  }
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

namespace {

size_t Rank(size_t n, double p) {
  // The 1e-9 guard keeps p = 90, n = 10 at rank 9 despite 0.9 * 10 rounding
  // to 9.000000000000002.
  const double exact = p / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double NearestRank(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return samples[Rank(samples.size(), p) - 1];
}

bool PercentileSupported(size_t n, double p) {
  return n > 0 && n - Rank(n, p) >= 10;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

namespace {

// 4M steps of xorshift-driven loads, stores and multiplies over 1 MiB; about
// kReferenceKernelSeconds on an idle 2.1 GHz Xeon vCPU.
uint32_t KernelPass(std::vector<uint32_t>* table) {
  const uint32_t mask = static_cast<uint32_t>(table->size() - 1);
  uint32_t* t = table->data();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  uint32_t acc = 1;
  for (int i = 0; i < 4'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const uint32_t idx = static_cast<uint32_t>(x) & mask;
    switch (x >> 62) {
      case 0:
        acc += t[idx];
        break;
      case 1:
        t[idx] ^= acc;
        break;
      case 2:
        acc = acc * 2654435761u + t[(idx + 64) & mask];
        break;
      default:
        t[idx] += static_cast<uint32_t>(x >> 32);
        break;
    }
  }
  return acc;
}

}  // namespace

int64_t ProcessCpuNs() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double CalibrationKernelSeconds(int threads, double* cpu_s) {
  // Tables persist across calls so every pass runs warm.
  static std::vector<std::vector<uint32_t>> tables;
  static std::atomic<uint32_t> sink{0};
  threads = std::max(1, threads);
  if (tables.size() < static_cast<size_t>(threads)) {
    tables.resize(static_cast<size_t>(threads), std::vector<uint32_t>(1 << 18, 1));
  }
  const int64_t cpu0 = ProcessCpuNs();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int i = 1; i < threads; ++i) {
    workers.emplace_back([i] { sink.fetch_xor(KernelPass(&tables[static_cast<size_t>(i)])); });
  }
  sink.fetch_xor(KernelPass(&tables[0]));
  for (std::thread& worker : workers) {
    worker.join();
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (cpu_s != nullptr) {
    *cpu_s = static_cast<double>(ProcessCpuNs() - cpu0) / 1e9;
  }
  return std::chrono::duration<double>(t1 - t0).count();
}

std::map<std::string, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.t0_ns, s.t1_ns);
    }
  }
  std::map<std::string, int64_t> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      int64_t run_lo = 0;
      int64_t run_hi = -1;  // empty run
      auto flush = [&] {
        if (run_hi > run_lo) {
          covered += run_hi - run_lo;
        }
      };
      for (auto [lo, hi] : kids) {
        lo = std::max(lo, s.t0_ns);
        hi = std::min(hi, s.t1_ns);
        if (hi <= lo) {
          continue;
        }
        if (run_hi < run_lo || lo > run_hi) {
          flush();
          run_lo = lo;
          run_hi = hi;
        } else {
          run_hi = std::max(run_hi, hi);
        }
      }
      flush();
    }
    self[s.name] += (s.t1_ns - s.t0_ns) - covered;
  }
  return self;
}

}  // namespace hostbench
