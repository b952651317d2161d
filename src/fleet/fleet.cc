#include "src/fleet/fleet.h"

#include <chrono>
#include <memory>
#include <utility>

#include "src/aft/aft.h"
#include "src/common/strings.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/device.h"

namespace amulet {

namespace {

using fleet_internal::ClonedDevice;
using fleet_internal::CohortRuntime;
using fleet_internal::ResidentDevices;
using fleet_internal::SecondsSince;

// Runs device `device_id` of cohort `cohort_index` on `worker`'s resident
// device for that cohort.
Status RunDevice(int device_id, int worker, int cohort_index, const FleetConfig& config,
                 const CohortRuntime& cohort, ResidentDevices* residents, DeviceStats* out,
                 FaultLedger* ledger) {
  // Pure function of (fleet_seed, GLOBAL device id): the same device gets the
  // same stream no matter which shard simulates it.
  const uint32_t device_seed = fleet_internal::DeviceSeed(config.fleet_seed, device_id);
  ASSIGN_OR_RETURN(ClonedDevice * device,
                   residents->Acquire(worker, cohort_index, device_seed, cohort, config));
  // The cohort's rest/walk/run weights shape the activity draw; the default
  // 1/1/1 weights reproduce the mode Reset already applied.
  device->os().sensors().set_mode(ActivityForDevice(cohort.cohort, device_seed));
  DeviceStats stats;
  stats.device_id = device_id;
  RETURN_IF_ERROR(device->Run(config.sim_ms, cohort.regions, &stats, ledger));
  stats.battery_impact_percent =
      fleet_internal::BatteryPercentFor(stats.cycles, config.sim_ms, config.energy);
  *out = stats;
  return OkStatus();
}

using fleet_internal::RecordDeviceMetrics;

void Aggregate(FleetReport* report) {
  // Only this report's shard slice: rows outside it are untouched slots
  // (another shard's devices).
  const ShardRange range = ShardRangeFor(report->config.device_count,
                                         report->config.shard_index,
                                         report->config.shard_count);
  const size_t n = static_cast<size_t>(range.size());
  std::vector<double> cycles(n), data(n), syscalls(n), dispatches(n), faults(n), pucs(n),
      wdt(n), instructions(n), battery(n);
  FleetAggregate& agg = report->aggregate;
  for (size_t i = 0; i < n; ++i) {
    const DeviceStats& d = report->devices[static_cast<size_t>(range.lo) + i];
    cycles[i] = static_cast<double>(d.cycles);
    data[i] = static_cast<double>(d.data_accesses);
    syscalls[i] = static_cast<double>(d.syscalls);
    dispatches[i] = static_cast<double>(d.dispatches);
    faults[i] = static_cast<double>(d.faults);
    pucs[i] = static_cast<double>(d.pucs);
    wdt[i] = static_cast<double>(d.watchdog_resets);
    instructions[i] = static_cast<double>(d.instructions);
    battery[i] = d.battery_impact_percent;
    agg.total_cycles += d.cycles;
    agg.total_data_accesses += d.data_accesses;
    agg.total_syscalls += d.syscalls;
    agg.total_dispatches += d.dispatches;
    agg.total_faults += d.faults;
    agg.total_pucs += d.pucs;
    agg.total_watchdog_resets += d.watchdog_resets;
    agg.total_instructions += d.instructions;
  }
  agg.cycles = Summarize(std::move(cycles));
  agg.data_accesses = Summarize(std::move(data));
  agg.syscalls = Summarize(std::move(syscalls));
  agg.dispatches = Summarize(std::move(dispatches));
  agg.faults = Summarize(std::move(faults));
  agg.pucs = Summarize(std::move(pucs));
  agg.watchdog_resets = Summarize(std::move(wdt));
  agg.instructions = Summarize(std::move(instructions));
  agg.battery_impact_percent = Summarize(std::move(battery));
}

// Streaming-mode aggregate: everything derives from the merged registry.
// Totals and min/max/mean are exact; quantiles have log2-bucket resolution.
void AggregateFromMetrics(FleetReport* report) {
  FleetAggregate& agg = report->aggregate;
  agg.total_cycles = report->metrics.counter("fleet.cycles");
  agg.total_data_accesses = report->metrics.counter("fleet.data_accesses");
  agg.total_syscalls = report->metrics.counter("fleet.syscalls");
  agg.total_dispatches = report->metrics.counter("fleet.dispatches");
  agg.total_faults = report->metrics.counter("fleet.faults");
  agg.total_pucs = report->metrics.counter("fleet.pucs");
  agg.total_watchdog_resets = report->metrics.counter("fleet.watchdog_resets");
  agg.total_instructions = report->metrics.counter("fleet.instructions");
  auto fill = [&](const char* name, StatSummary* s, double scale) {
    const LogHistogram* h = report->metrics.histogram(name);
    if (h == nullptr || h->count == 0) {
      return;
    }
    s->count = static_cast<int>(h->count);
    s->min = static_cast<double>(h->min) * scale;
    s->max = static_cast<double>(h->max) * scale;
    s->mean = h->Mean() * scale;
    s->p50 = static_cast<double>(h->Quantile(0.50)) * scale;
    s->p95 = static_cast<double>(h->Quantile(0.95)) * scale;
    s->p99 = static_cast<double>(h->Quantile(0.99)) * scale;
  };
  fill("device.cycles", &agg.cycles, 1.0);
  fill("device.data_accesses", &agg.data_accesses, 1.0);
  fill("device.syscalls", &agg.syscalls, 1.0);
  fill("device.dispatches", &agg.dispatches, 1.0);
  fill("device.faults", &agg.faults, 1.0);
  fill("device.pucs", &agg.pucs, 1.0);
  fill("device.watchdog_resets", &agg.watchdog_resets, 1.0);
  fill("device.instructions", &agg.instructions, 1.0);
  fill("device.battery_upct", &agg.battery_impact_percent, 1e-6);
}

// Shared body of RunFleet/ResumeFleet. `resume` (may be null) is a validated
// checkpoint whose completed devices are restored instead of simulated; the
// merged registry is order-independent and retained rows are slot-indexed by
// device id, so the resumed report — and its FleetDigest — is bit-identical
// to an uninterrupted run at any thread count.
Result<FleetReport> RunFleetImpl(const FleetConfig& config, const FleetCheckpoint* resume) {
  if (config.device_count <= 0) {
    return InvalidArgumentError("fleet needs at least one device");
  }
  if (config.shard_count < 1 || config.shard_index < 0 ||
      config.shard_index >= config.shard_count) {
    return InvalidArgumentError(StrFormat(
        "invalid shard slice %d/%d: --shard I/N needs 0 <= I < N", config.shard_index,
        config.shard_count));
  }
  if (config.shard_count > config.device_count) {
    return InvalidArgumentError(
        StrFormat("shard count %d exceeds device count %d (some shards would be empty)",
                  config.shard_count, config.device_count));
  }
  if (!config.profile.empty()) {
    RETURN_IF_ERROR(ValidateProfile(config.profile));
  }

  const auto boot_t0 = std::chrono::steady_clock::now();
  // One booted template per cohort; a homogeneous fleet gets exactly one
  // implicit cohort from config.apps/config.model with 1/1/1 activity
  // weights, reproducing the single-template behavior bit for bit.
  std::vector<std::unique_ptr<CohortRuntime>> cohorts;
  if (config.profile.empty()) {
    Cohort implicit;
    implicit.apps = config.apps;
    implicit.model = config.model;
    ASSIGN_OR_RETURN(std::unique_ptr<CohortRuntime> runtime,
                     fleet_internal::BootCohort(implicit, config));
    cohorts.push_back(std::move(runtime));
  } else {
    for (const Cohort& cohort : config.profile.cohorts) {
      ASSIGN_OR_RETURN(std::unique_ptr<CohortRuntime> runtime,
                       fleet_internal::BootCohort(cohort, config));
      cohorts.push_back(std::move(runtime));
    }
  }

  // Profile identity: the resolved cohort list plus each cohort's firmware
  // image hash. Zero marks a homogeneous run.
  PopulationProfile resolved_profile;
  std::vector<uint64_t> cohort_fw_hashes;
  for (const std::unique_ptr<CohortRuntime>& cohort : cohorts) {
    resolved_profile.cohorts.push_back(cohort->cohort);
    cohort_fw_hashes.push_back(cohort->firmware_hash);
  }
  const uint64_t profile_hash =
      config.profile.empty() ? 0 : ProfileHash(resolved_profile, cohort_fw_hashes);
  const std::string profile_text =
      config.profile.empty() ? std::string()
                             : ProfileCanonical(resolved_profile, cohort_fw_hashes);

  // The checkpoint's template snapshot is cohort 0's; the other cohorts'
  // builds are pinned through the per-cohort firmware hashes in the profile
  // hash. The firmware image hash folds the template's loadable bytes into
  // the config identity, so resuming against a different build of the same
  // app list fails loudly instead of mixing incompatible device results.
  const MachineSnapshot& snapshot = cohorts[0]->snapshot;
  const std::string canonical =
      FleetConfigCanonical(config, cohorts[0]->firmware_hash, profile_hash);
  const uint64_t config_hash =
      FleetConfigHash(config, cohorts[0]->firmware_hash, profile_hash);
  const ShardRange shard_range =
      ShardRangeFor(config.device_count, config.shard_index, config.shard_count);
  if (resume != nullptr) {
    if (resume->kind != FleetCheckpointKind::kFleet) {
      return InvalidArgumentError(
          "checkpoint was written by a campaign run; resume it with the campaign driver");
    }
    // Specific shard/profile mismatches before the generic config-hash check,
    // so a wrong --shard or --profile names both values instead of dumping
    // two canonical strings.
    if (resume->shard_index != config.shard_index ||
        resume->shard_count != config.shard_count) {
      const ShardRange ckpt_range =
          ShardRangeFor(config.device_count, resume->shard_index, resume->shard_count);
      return InvalidArgumentError(StrFormat(
          "checkpoint shard mismatch: checkpoint covers shard %d/%d (devices [%d, %d)), "
          "this run requests shard %d/%d (devices [%d, %d))",
          resume->shard_index, resume->shard_count, ckpt_range.lo, ckpt_range.hi,
          config.shard_index, config.shard_count, shard_range.lo, shard_range.hi));
    }
    if (resume->profile_hash != profile_hash) {
      return InvalidArgumentError(StrFormat(
          "checkpoint profile mismatch: checkpoint profile hash %016llx [%s], this run's "
          "profile hash %016llx [%s]",
          static_cast<unsigned long long>(resume->profile_hash),
          resume->profile_hash == 0 ? "homogeneous" : resume->profile_text.c_str(),
          static_cast<unsigned long long>(profile_hash),
          profile_hash == 0 ? "homogeneous" : profile_text.c_str()));
    }
    if (resume->config_hash != config_hash) {
      return InvalidArgumentError(
          StrFormat("checkpoint config mismatch: checkpoint was written by [%s], this "
                    "run is [%s]",
                    resume->config_text.c_str(), canonical.c_str()));
    }
    if (resume->template_snapshot.bytes != snapshot.bytes) {
      return InvalidArgumentError(
          "checkpoint template snapshot does not match the one this build and config "
          "produce");
    }
  }

  FleetReport report;
  report.config = config;
  report.config.apps = cohorts[0]->cohort.apps;
  if (!config.profile.empty()) {
    report.config.profile = resolved_profile;  // apps resolved per cohort
  }
  report.snapshot_bytes = snapshot.bytes.size();
  report.boot_seconds = SecondsSince(boot_t0);
  const bool retain = config.retain_device_stats;
  if (retain) {
    // Global-sized, slot-indexed by device id: a shard run fills only its
    // slice, which is exactly the shape MergeFleetCheckpoints concatenates.
    report.devices.resize(static_cast<size_t>(config.device_count));
  }

  // Snapshot of the run's durable rows; the runner adds the merged state.
  auto build_checkpoint = [&](const std::vector<bool>& completed) {
    FleetCheckpoint cp;
    cp.kind = FleetCheckpointKind::kFleet;
    cp.config_hash = config_hash;
    cp.config_text = canonical;
    cp.template_snapshot = snapshot;
    cp.shard_index = config.shard_index;
    cp.shard_count = config.shard_count;
    cp.profile_hash = profile_hash;
    cp.profile_text = profile_text;
    if (retain) {
      for (int i = 0; i < config.device_count; ++i) {
        if (completed[static_cast<size_t>(i)]) {
          cp.devices.push_back(report.devices[static_cast<size_t>(i)]);
        }
      }
    }
    return cp;
  };
  fleet_internal::DeviceRunner runner(config, "fleet run", &report.metrics, &report.faults,
                                      build_checkpoint, resume);
  report.config.jobs = runner.thread_count();
  if (resume == nullptr && config.shard_index == 0) {
    // Build-time check counters: phase-2 instructions inserted vs phase-2.5
    // instructions deleted, summed over every cohort's firmware. Recorded
    // once per fleet — by shard 0 only, so the merged registry matches a
    // single-host run's (a checkpointed resume restores them with the
    // registry).
    uint64_t checks_total = 0;
    uint64_t checks_elided = 0;
    for (const std::unique_ptr<CohortRuntime>& cohort : cohorts) {
      for (const AppImage& app : cohort->firmware.apps) {
        checks_total += static_cast<uint64_t>(app.checks.check_insts);
        checks_elided += static_cast<uint64_t>(app.checks.elided_data_checks) +
                         static_cast<uint64_t>(app.checks.elided_code_checks) +
                         static_cast<uint64_t>(app.checks.elided_index_checks);
      }
    }
    report.metrics.Add("fleet.checks_total", checks_total);
    report.metrics.Add("fleet.checks_elided", checks_elided);
  }
  if (resume != nullptr) {
    report.resumed_devices = resume->CompletedCount();
    if (retain) {
      for (const DeviceStats& d : resume->devices) {
        report.devices[static_cast<size_t>(d.device_id)] = d;
      }
    }
  }
  std::vector<int> pending;
  for (int i = shard_range.lo; i < shard_range.hi; ++i) {
    if (!runner.completed()[static_cast<size_t>(i)]) {
      pending.push_back(i);
    }
  }

  ResidentDevices residents(runner.thread_count(), static_cast<int>(cohorts.size()));
  const auto run_t0 = std::chrono::steady_clock::now();
  runner.Run(pending, [&](int id, int worker, MetricRegistry* device_metrics,
                          FaultLedger* ledger) {
    DeviceStats local;
    DeviceStats* slot = retain ? &report.devices[static_cast<size_t>(id)] : &local;
    const int cohort_index =
        config.profile.empty() ? 0
                               : CohortForDevice(resolved_profile, config.fleet_seed, id);
    const CohortRuntime& cohort = *cohorts[static_cast<size_t>(cohort_index)];
    RETURN_IF_ERROR(
        RunDevice(id, worker, cohort_index, config, cohort, &residents, slot, ledger));
    RecordDeviceMetrics(*slot, device_metrics);
    if (!config.profile.empty()) {
      // Per-device counter, so cohort sizes merge order-independently
      // across jobs, resume, and shards.
      device_metrics->Add("fleet.cohort." + cohort.cohort.name, 1);
    }
    return OkStatus();
  });
  report.run_seconds = SecondsSince(run_t0);
  RETURN_IF_ERROR(runner.Finish());
  if (retain) {
    Aggregate(&report);
  } else {
    AggregateFromMetrics(&report);
  }
  return report;
}

}  // namespace

ShardRange ShardRangeFor(int device_count, int shard_index, int shard_count) {
  ShardRange range;
  if (device_count <= 0 || shard_count <= 0 || shard_index < 0 ||
      shard_index >= shard_count) {
    return range;  // empty [0, 0)
  }
  // Contiguous slices differing in size by at most one device; 64-bit
  // intermediates so device_count * shard_count cannot overflow.
  const int64_t n = device_count;
  range.lo = static_cast<int>(n * shard_index / shard_count);
  range.hi = static_cast<int>(n * (shard_index + 1) / shard_count);
  return range;
}

void RecomputeFleetAggregate(FleetReport* report) {
  report->aggregate = FleetAggregate();
  if (report->config.retain_device_stats) {
    Aggregate(report);
  } else {
    AggregateFromMetrics(report);
  }
}

Result<FleetReport> RunFleet(const FleetConfig& config) {
  return RunFleetImpl(config, nullptr);
}

Result<FleetReport> ResumeFleet(const FleetConfig& config) {
  if (config.checkpoint_path.empty()) {
    return InvalidArgumentError("ResumeFleet requires config.checkpoint_path");
  }
  ASSIGN_OR_RETURN(FleetCheckpoint checkpoint, ReadFleetCheckpoint(config.checkpoint_path));
  return RunFleetImpl(config, &checkpoint);
}

std::string FleetDigest(const FleetReport& report) {
  std::string out;
  // Only the shard slice: slots outside it belong to other shards and are
  // never filled. A merged or single-host report's slice is the whole fleet.
  const ShardRange range = ShardRangeFor(report.config.device_count,
                                         report.config.shard_index,
                                         report.config.shard_count);
  for (int id = range.lo; !report.devices.empty() && id < range.hi; ++id) {
    const DeviceStats& d = report.devices[static_cast<size_t>(id)];
    out += StrFormat("d%d:%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%a\n", d.device_id,
                     static_cast<unsigned long long>(d.cycles),
                     static_cast<unsigned long long>(d.data_accesses),
                     static_cast<unsigned long long>(d.syscalls),
                     static_cast<unsigned long long>(d.dispatches),
                     static_cast<unsigned long long>(d.faults),
                     static_cast<unsigned long long>(d.pucs),
                     static_cast<unsigned long long>(d.watchdog_resets),
                     static_cast<unsigned long long>(d.instructions),
                     d.battery_impact_percent);
  }
  const FleetAggregate& a = report.aggregate;
  for (const StatSummary* s :
       {&a.cycles, &a.data_accesses, &a.syscalls, &a.dispatches, &a.faults, &a.pucs,
        &a.watchdog_resets, &a.instructions, &a.battery_impact_percent}) {
    out += StrFormat("agg:%a,%a,%a,%a,%a,%a,%d\n", s->min, s->p50, s->p95, s->p99, s->max,
                     s->mean, s->count);
  }
  out += StrFormat("tot:%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu\n",
                   static_cast<unsigned long long>(a.total_cycles),
                   static_cast<unsigned long long>(a.total_data_accesses),
                   static_cast<unsigned long long>(a.total_syscalls),
                   static_cast<unsigned long long>(a.total_dispatches),
                   static_cast<unsigned long long>(a.total_faults),
                   static_cast<unsigned long long>(a.total_pucs),
                   static_cast<unsigned long long>(a.total_watchdog_resets),
                   static_cast<unsigned long long>(a.total_instructions));
  out += "metrics:";
  out += report.metrics.ToJson();
  out += "\n";
  out += "ledger:\n";
  out += report.faults.DigestText();
  return out;
}

namespace {

std::string SummaryRow(const char* name, const StatSummary& s) {
  return StrFormat("  %-16s %14.0f %14.0f %14.0f %14.0f %14.1f\n", name, s.p50, s.p95, s.p99,
                   s.max, s.mean);
}

}  // namespace

std::string RenderFleetReport(const FleetReport& report) {
  const FleetConfig& config = report.config;
  // Devices this host actually simulated (the shard slice), for the
  // wall-clock throughput lines.
  const int local_devices =
      ShardRangeFor(config.device_count, config.shard_index, config.shard_count).size();
  std::string apps;
  for (const std::string& name : config.apps) {
    if (!apps.empty()) {
      apps += ",";
    }
    apps += name;
  }
  std::string out = StrFormat(
      "fleet: %d device(s), model=%s, seed=%u, %.1f s simulated each, %d worker thread(s)\n",
      config.device_count, std::string(MemoryModelName(config.model)).c_str(),
      config.fleet_seed, static_cast<double>(config.sim_ms) / 1000.0, config.jobs);
  out += StrFormat("apps: %s\n", apps.c_str());
  if (config.shard_count > 1) {
    const ShardRange range =
        ShardRangeFor(config.device_count, config.shard_index, config.shard_count);
    out += StrFormat("shard: %d/%d — devices [%d, %d) of %d\n", config.shard_index,
                     config.shard_count, range.lo, range.hi, config.device_count);
  }
  if (!config.profile.empty()) {
    out += "profile:\n";
    for (const Cohort& cohort : config.profile.cohorts) {
      const uint64_t devices =
          report.metrics.counter("fleet.cohort." + cohort.name);
      out += StrFormat("  %-16s weight %u, model=%s, act=%u/%u/%u — %llu device(s)\n",
                       cohort.name.c_str(), cohort.weight,
                       std::string(MemoryModelName(cohort.model)).c_str(),
                       cohort.rest_weight, cohort.walk_weight, cohort.run_weight,
                       static_cast<unsigned long long>(devices));
    }
  }
  if (report.resumed_devices > 0) {
    out += StrFormat("resumed: %d device(s) restored from checkpoint, %d simulated\n",
                     report.resumed_devices, local_devices - report.resumed_devices);
  }
  out += StrFormat(
      "template boot %.3f s (snapshot %zu bytes); fleet run %.3f s (%.1f devices/s, %.1f "
      "simulated-s/s)\n",
      report.boot_seconds, report.snapshot_bytes, report.run_seconds,
      report.run_seconds > 0 ? local_devices / report.run_seconds : 0.0,
      report.run_seconds > 0 ? local_devices *
                                   (static_cast<double>(config.sim_ms) / 1000.0) /
                                   report.run_seconds
                             : 0.0);
  out += StrFormat(
      "throughput: %llu instructions retired, %.2f sim-MIPS host-side (%s path)\n",
      static_cast<unsigned long long>(report.aggregate.total_instructions),
      report.run_seconds > 0
          ? static_cast<double>(report.aggregate.total_instructions) / report.run_seconds / 1e6
          : 0.0,
      config.predecode ? "predecode" : "interpreter");
  out += StrFormat("  %-16s %14s %14s %14s %14s %14s\n", "per-device", "p50", "p95", "p99",
                   "max", "mean");
  const FleetAggregate& a = report.aggregate;
  out += SummaryRow("cycles", a.cycles);
  out += SummaryRow("data accesses", a.data_accesses);
  out += SummaryRow("syscalls", a.syscalls);
  out += SummaryRow("dispatches", a.dispatches);
  out += SummaryRow("faults", a.faults);
  out += SummaryRow("PUCs", a.pucs);
  out += SummaryRow("WDT resets", a.watchdog_resets);
  out += SummaryRow("instructions", a.instructions);
  out += StrFormat("  %-16s %14.4f %14.4f %14.4f %14.4f %14.4f   (%% battery/week)\n",
                   "battery impact", a.battery_impact_percent.p50,
                   a.battery_impact_percent.p95, a.battery_impact_percent.p99,
                   a.battery_impact_percent.max, a.battery_impact_percent.mean);
  out += StrFormat(
      "totals: %llu cycles, %llu instructions, %llu data accesses, %llu syscalls, %llu "
      "dispatches, %llu faults, %llu PUCs, %llu WDT resets\n",
      static_cast<unsigned long long>(a.total_cycles),
      static_cast<unsigned long long>(a.total_instructions),
      static_cast<unsigned long long>(a.total_data_accesses),
      static_cast<unsigned long long>(a.total_syscalls),
      static_cast<unsigned long long>(a.total_dispatches),
      static_cast<unsigned long long>(a.total_faults),
      static_cast<unsigned long long>(a.total_pucs),
      static_cast<unsigned long long>(a.total_watchdog_resets));
  if (!report.faults.empty()) {
    out += report.faults.RenderTriage(5);
  }
  return out;
}

}  // namespace amulet
