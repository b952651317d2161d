#include "hostbench/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "hostbench/bench_core.h"
#include "hostbench/spans.h"
#include "src/aft/aft.h"
#include "src/aft/checks.h"
#include "src/aft/opt.h"
#include "src/apps/app_sources.h"
#include "src/asm/assembler.h"
#include "src/common/strings.h"
#include "src/compiler/codegen.h"
#include "src/compiler/lower.h"
#include "src/fleet/campaign.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/device.h"
#include "src/fleet/executor.h"
#include "src/fleet/fleet.h"
#include "src/fleet/profile.h"
#include "src/lang/parser.h"
#include "src/lang/sema.h"
#include "src/mcu/machine.h"
#include "src/os/api.h"
#include "src/os/os.h"
#include "src/ota/bootloader.h"
#include "src/ota/image.h"
#include "src/scope/tracer.h"

namespace hostbench {

namespace {

using namespace amulet;  // NOLINT: the harness calls into every layer
using fleet_internal::ClonedDevice;
using fleet_internal::DataRegions;

// ---------------------------------------------------------------------------
// Workload sizes. One iteration is one library call (RunFleet, RunCampaign)
// or one batch of builds; a run repeats iterations for --seconds and reports
// medians, so an iteration is sized to about a second of host time on a
// 4-core x86 host: long enough for its dominant layer to dominate, short
// enough for a dozen iterations per run.

// fleet_steady: the ROADMAP's suite-app fleet (4 apps, MPU, 2 s per device,
// serial, streaming aggregation), 1000 devices per iteration instead of 2000
// so a run holds several iterations; 1000 devices keep the seed-drawn mix of
// rest/walk/run devices within a few percent of even. Serial, so sim_mips
// measures the per-device execute path with no executor in the way.
constexpr int kSteadyDevices = 1000;
constexpr uint64_t kSteadySimMs = 2000;

// fleet_churn: five cohorts (the full suite under each memory model plus a
// crasher cohort), 100 ms per device, so clone, cold predecode fill, merge
// and checkpoint cost outweigh execution. A fifth of the devices run the
// crasher app and fault, exercising fault forensics and the ledger merge.
constexpr int kChurnDevices = 20000;
constexpr uint64_t kChurnSimMs = 100;
constexpr int kChurnCheckpointEvery = 256;

// ota_campaign: v1 pedometer,clock,hr rolled out to v2 (+falldetection) in
// the default 5/50/100 stages; 1 s workload plus a 1 s health window.
constexpr int kOtaDevices = 2000;
constexpr uint64_t kOtaSimMs = 1000;
constexpr uint64_t kOtaHealthMs = 1000;

// toolchain_build: kToolchainSets stratified sets of nine seeded app subsets
// (one of each size 1..9, every suite app in exactly five of them), each
// subset built under all four memory models. The seed picks which apps share
// a firmware, not how much code is compiled, so every seed measures the same
// amount of toolchain work. The MPU image of every subset also boots and runs
// kBootSimMs on the simulator (the boot check, which also feeds
// devices_per_s and sim_mips).
constexpr int kToolchainSets = 4;
constexpr uint64_t kBootSimMs = 1000;

// Fleet workloads build their own firmware set this many times per iteration
// (the "build probe") so builds_per_s and build_ms_p* mean the same thing on
// every workload: the toolchain building that workload's firmware.
constexpr int kProbeSets = 16;

// Devices re-run on the reference interpreter core for the output check.
constexpr int kSliceDevices = 16;

constexpr int kMinIterations = 3;
// Device spans written to the Chrome trace (all spans are attributed; the
// file keeps the first devices only, to stay small).
constexpr int kTraceDevices = 256;

const MemoryModel kModels[] = {MemoryModel::kNoIsolation, MemoryModel::kFeatureLimited,
                               MemoryModel::kSoftwareOnly, MemoryModel::kMpu};

uint32_t DeriveSeed(uint64_t seed, uint64_t salt) {
  return static_cast<uint32_t>(fleet_internal::SplitMix64(seed * 0x100000001B3ull ^ salt) >> 32);
}

int Jobs() { return std::min(4, Executor::DefaultThreadCount()); }

double SecondsSince(int64_t t0_ns) { return static_cast<double>(NowNs() - t0_ns) / 1e9; }

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  void Fail(uint64_t n, std::string why) {
    failed += n;
    if (problems.size() < 20) {
      problems.push_back(std::move(why));
    }
  }
};

// One untraced iteration's measurements.
struct Sample {
  // Calibration kernel seconds (mean of the runs just before and after the
  // iteration) on the workload's threads, and on one thread: set-up and
  // builds run on one thread even in a parallel workload.
  double kernel_s = kReferenceKernelSeconds;
  double single_kernel_s = kReferenceKernelSeconds;
  double single_kernel_cpu_s = kReferenceKernelSeconds;  // its CPU time
  double wall_s = 0;
  double setup_s = 0;
  double run_s = 0;  // device phase
  uint64_t devices = 0;
  uint64_t instructions = 0;
  uint64_t builds = 0;
  // Builds are timed in process CPU time (ProcessCpuNs).
  double build_s = 0;             // all builds of the iteration
  std::vector<double> build_ms;  // samples: ms per firmware
};

// What a traced iteration counts besides its spans.
struct LayerCounts {
  uint64_t builds = 0;
  uint64_t checks_inserted = 0;
  uint64_t checks_elided = 0;
  uint64_t image_bytes = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t devices = 0;
  uint64_t fills = 0;
  uint64_t hits = 0;
  uint64_t slow_paths = 0;
  uint64_t invalidations = 0;
  uint64_t instructions = 0;
  uint64_t data_accesses = 0;
  uint64_t syscalls = 0;
  uint64_t dispatches = 0;
  uint64_t faults = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t verify_cycles = 0;
  int threads = 1;

  void AddDevice(const DeviceStats& d) {
    ++devices;
    instructions += d.instructions;
    data_accesses += d.data_accesses;
    syscalls += d.syscalls;
    dispatches += d.dispatches;
    faults += d.faults;
  }
  void AddCache(const CodeCache::Stats& s) {
    fills += s.misses;
    hits += s.hits;
    slow_paths += s.slow_paths;
    invalidations += s.invalidations;
  }
};

bool SameRow(const DeviceStats& a, const DeviceStats& b) {
  return a.device_id == b.device_id && a.cycles == b.cycles &&
         a.data_accesses == b.data_accesses && a.syscalls == b.syscalls &&
         a.dispatches == b.dispatches && a.faults == b.faults && a.pucs == b.pucs &&
         a.watchdog_resets == b.watchdog_resets && a.instructions == b.instructions &&
         a.battery_impact_percent == b.battery_impact_percent;
}

// ---------------------------------------------------------------------------
// Toolchain layers.

SemaOptions ApiSemaOptions() {
  SemaOptions options;
  for (const ApiEntry& entry : ApiTable()) {
    options.api_numbers[entry.name] = static_cast<int>(entry.id);
  }
  return options;
}

// BuildFirmware's per-app pipeline (src/aft/aft.cc, CompileApp) repeated
// call by call, each public phase function in its own span. BuildFirmware
// cannot be opened from outside, so a traced build runs twice: whole
// (aft.build, whose firmware is used) and phase by phase (aft.phase_replay,
// for attribution). Layout and link are what aft.build_ms has beyond the
// phase spans.
Status ReplayCompilePhases(SpanRecorder* rec, const AppSource& app, const AftOptions& options) {
  const std::string full_source = ApiPrelude() + app.source;
  std::unique_ptr<Program> program;
  FeatureAudit audit;
  IrProgram ir;
  const BoundSymbols bounds = BoundSymbolsFor(app.name);
  {
    Scope s(rec, "lang.parse");
    ASSIGN_OR_RETURN(program, Parse(full_source, app.name));
  }
  {
    Scope s(rec, "lang.sema");
    RETURN_IF_ERROR(Analyze(program.get(), ApiSemaOptions(), &audit));
  }
  {
    Scope s(rec, "compiler.lower");
    ASSIGN_OR_RETURN(ir, LowerProgram(program.get(), app.name));
  }
  auto verify = [&](bool allow_markers) -> Status {
    if (!options.verify_ir) {
      return OkStatus();
    }
    Scope s(rec, "aft.verify_ir");
    return VerifyIr(ir, allow_markers);
  };
  RETURN_IF_ERROR(verify(true));
  {
    Scope s(rec, "aft.checks");
    const MemoryModel check_model =
        options.future_mpu ? MemoryModel::kNoIsolation : options.model;
    RETURN_IF_ERROR(InsertChecks(&ir, check_model, bounds).status());
  }
  RETURN_IF_ERROR(verify(false));
  if (options.optimize_checks) {
    Scope s(rec, "aft.opt");
    CheckOptOptions opt;
    opt.frame_safe = !audit.uses_recursion && !audit.has_indirect_calls;
    RETURN_IF_ERROR(OptimizeChecks(&ir, bounds, opt).status());
  }
  if (options.optimize_checks) {
    RETURN_IF_ERROR(verify(false));
  }
  CodegenOptions cg;
  cg.text_section = "." + app.name + ".text";
  cg.data_section = "." + app.name + ".data";
  cg.shadow_ret_stack = options.shadow_return_stack;
  cg.use_hw_multiplier = options.use_hw_multiplier;
  CodegenResult code;
  {
    Scope s(rec, "compiler.codegen");
    ASSIGN_OR_RETURN(code, GenerateAssembly(ir, cg));
  }
  {
    Scope s(rec, "asm.assemble");
    const std::string thunk = StrFormat(".section %s\n__thunk_%s:\n  call r11\n  ret\n",
                                        cg.text_section.c_str(), app.name.c_str());
    RETURN_IF_ERROR(Assemble(thunk, app.name + "_thunk.s").status());
    RETURN_IF_ERROR(Assemble(code.assembly, app.name + ".s").status());
  }
  return OkStatus();
}

// BuildFirmware, its process CPU time in *build_ms when given; a traced
// build (rec set) is followed by the phase replay.
Result<Firmware> BuildTimed(SpanRecorder* rec, const std::vector<AppSource>& sources,
                            const AftOptions& aft, double* build_ms, LayerCounts* counts) {
  Firmware firmware;
  const int64_t cpu0 = ProcessCpuNs();
  {
    Scope s(rec, "aft.build");
    ASSIGN_OR_RETURN(firmware, BuildFirmware(sources, aft));
  }
  if (build_ms != nullptr) {
    *build_ms = static_cast<double>(ProcessCpuNs() - cpu0) / 1e6;
  }
  if (counts != nullptr) {
    ++counts->builds;
    for (const AppImage& app : firmware.apps) {
      counts->checks_inserted += static_cast<uint64_t>(app.checks.check_insts);
      counts->checks_elided += static_cast<uint64_t>(app.checks.elided_data_checks +
                                                     app.checks.elided_code_checks +
                                                     app.checks.elided_index_checks);
    }
    for (const auto& [base, bytes] : firmware.image.chunks) {
      counts->image_bytes += bytes.size();
    }
  }
  if (rec != nullptr) {
    Scope s(rec, "aft.phase_replay");
    for (const AppSource& app : sources) {
      RETURN_IF_ERROR(ReplayCompilePhases(rec, app, aft));
    }
  }
  return firmware;
}

// ---------------------------------------------------------------------------
// Template boot and device path.

// One booted template: firmware, booted machine, and the snapshot devices
// clone from. Heap-held because the OS keeps a reference to the firmware.
struct Template {
  Cohort cohort;
  Firmware firmware;
  DataRegions regions;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<AmuletOs> os;
  MachineSnapshot snapshot;
};

OsOptions TemplateOptions(const FleetConfig& config) {
  OsOptions options;
  options.fram_wait_states = config.fram_wait_states;
  options.fault_policy = FaultPolicy::kRestartApp;
  options.sensor_seed = config.fleet_seed;
  return options;
}

Status BootTemplate(SpanRecorder* rec, const OsOptions& options, bool predecode, Template* t,
                    LayerCounts* counts) {
  t->regions = DataRegions::For(t->firmware);
  {
    Scope s(rec, "os.boot");
    t->machine = std::make_unique<Machine>();
    t->machine->cpu().set_predecode(predecode);
    t->os = std::make_unique<AmuletOs>(t->machine.get(), t->firmware, options);
    RETURN_IF_ERROR(t->os->Boot());
  }
  {
    Scope s(rec, "mcu.snapshot");
    t->snapshot = CaptureSnapshot(*t->machine);
  }
  if (counts != nullptr) {
    counts->snapshot_bytes += t->snapshot.bytes.size();
  }
  return OkStatus();
}

Result<std::unique_ptr<ClonedDevice>> CloneTraced(SpanRecorder* rec, int device_id,
                                                  uint32_t device_seed, const FleetConfig& config,
                                                  const Template& t) {
  Scope s(rec, "fleet.clone", device_id);
  return ClonedDevice::Clone(device_seed, config.fram_wait_states, t.firmware, t.snapshot, *t.os,
                             config.predecode, config.flight_recorder);
}

std::vector<Cohort> CohortsOf(const FleetConfig& config) {
  if (!config.profile.empty()) {
    return config.profile.cohorts;
  }
  Cohort implicit;
  implicit.apps = config.apps;
  implicit.model = config.model;
  return {implicit};
}

// One firmware of a workload's build-probe set.
struct ProbeFirmware {
  std::vector<AppSource> sources;
  AftOptions aft;
};

// The build probe: the workload's firmware set built kProbeSets times. One
// sample is the set's build time per firmware, so a set of unequal
// firmwares (five cohorts, a campaign's two versions) still gives one mode
// for the percentiles. Every build of one firmware must hash the same.
Status BuildProbe(const std::vector<ProbeFirmware>& set, Sample* sample, Tally* tally,
                  std::vector<uint64_t>* hashes) {
  for (int r = 0; r < kProbeSets; ++r) {
    double set_ms = 0;
    for (size_t i = 0; i < set.size(); ++i) {
      double ms = 0;
      ASSIGN_OR_RETURN(Firmware firmware,
                       BuildTimed(nullptr, set[i].sources, set[i].aft, &ms, nullptr));
      set_ms += ms;
      ++tally->attempted;
      const uint64_t hash = FirmwareImageHash(firmware.image);
      if (hashes->size() <= i) {
        hashes->push_back(hash);
      } else if ((*hashes)[i] != hash) {
        tally->Fail(1, StrFormat("probe firmware %zu: hash changed between builds", i));
      }
    }
    sample->build_ms.push_back(set_ms / static_cast<double>(set.size()));
    sample->builds += set.size();
    sample->build_s += set_ms / 1e3;
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Traced fleet replay: RunFleet (src/fleet/fleet.cc) for a whole-fleet run
// with no resume, rebuilt from the public calls it makes, with a span around
// each. Its report must digest byte-identically to RunFleet's.

Result<FleetReport> ReplayFleet(SpanRecorder* rec, const FleetConfig& config,
                                LayerCounts* counts) {
  std::vector<std::unique_ptr<Template>> cohorts;
  PopulationProfile resolved;
  std::vector<uint64_t> fw_hashes;
  for (const Cohort& cohort : CohortsOf(config)) {
    auto t = std::make_unique<Template>();
    t->cohort = cohort;
    ASSIGN_OR_RETURN(std::vector<AppSource> sources,
                     fleet_internal::ResolveApps(&t->cohort.apps));
    AftOptions aft;
    aft.model = cohort.model;
    aft.optimize_checks = config.check_opt;
    ASSIGN_OR_RETURN(t->firmware, BuildTimed(rec, sources, aft, nullptr, counts));
    RETURN_IF_ERROR(BootTemplate(rec, TemplateOptions(config), config.predecode, t.get(), counts));
    resolved.cohorts.push_back(t->cohort);
    fw_hashes.push_back(FirmwareImageHash(t->firmware.image));
    cohorts.push_back(std::move(t));
  }
  const bool heterogeneous = !config.profile.empty();
  const uint64_t profile_hash = heterogeneous ? ProfileHash(resolved, fw_hashes) : 0;
  const std::string profile_text = heterogeneous ? ProfileCanonical(resolved, fw_hashes) : "";
  const std::string canonical = FleetConfigCanonical(config, fw_hashes[0], profile_hash);
  const uint64_t config_hash = FleetConfigHash(config, fw_hashes[0], profile_hash);

  const int n = config.device_count;
  FleetReport report;
  report.config = config;
  report.config.apps = cohorts[0]->cohort.apps;
  if (heterogeneous) {
    report.config.profile = resolved;
  }
  if (config.retain_device_stats) {
    report.devices.resize(static_cast<size_t>(n));
  }
  uint64_t checks_total = 0;
  uint64_t checks_elided = 0;
  for (const std::unique_ptr<Template>& t : cohorts) {
    for (const AppImage& app : t->firmware.apps) {
      checks_total += static_cast<uint64_t>(app.checks.check_insts);
      checks_elided += static_cast<uint64_t>(app.checks.elided_data_checks +
                                             app.checks.elided_code_checks +
                                             app.checks.elided_index_checks);
    }
  }
  report.metrics.Add("fleet.checks_total", checks_total);
  report.metrics.Add("fleet.checks_elided", checks_elided);

  std::vector<bool> completed(static_cast<size_t>(n), false);
  std::mutex merge_mu;
  Status first_error;                // guarded by merge_mu
  int devices_since_checkpoint = 0;  // guarded by merge_mu
  const bool checkpointing = !config.checkpoint_path.empty();
  // Checkpoint cadence by device count only: the benchmark configs set
  // checkpoint_every_seconds beyond any run length.
  auto write_checkpoint = [&]() -> Status {
    Status status;
    {
      Scope s(rec, "fleet.checkpoint");
      FleetCheckpoint cp;
      cp.kind = FleetCheckpointKind::kFleet;
      cp.config_hash = config_hash;
      cp.config_text = canonical;
      cp.template_snapshot = cohorts[0]->snapshot;
      cp.metrics = report.metrics;
      cp.faults = report.faults;
      cp.completed = completed;
      cp.device_count = n;
      cp.profile_hash = profile_hash;
      cp.profile_text = profile_text;
      if (config.retain_device_stats) {
        for (int i = 0; i < n; ++i) {
          if (completed[static_cast<size_t>(i)]) {
            cp.devices.push_back(report.devices[static_cast<size_t>(i)]);
          }
        }
      }
      status = WriteFleetCheckpoint(config.checkpoint_path, cp);
    }
    ++counts->checkpoints;
    std::error_code ec;
    counts->checkpoint_bytes += std::filesystem::file_size(config.checkpoint_path, ec);
    return status;
  };

  {
    Scope phase(rec, "fleet.devices");
    const uint64_t phase_id = phase.id();
    auto run_one = [&](size_t k) {
      const int id = static_cast<int>(k);
      Scope device_span(rec, "fleet.device", id, phase_id);
      const int cohort_index =
          heterogeneous ? CohortForDevice(resolved, config.fleet_seed, id) : 0;
      const Template& t = *cohorts[static_cast<size_t>(cohort_index)];
      const uint32_t device_seed = fleet_internal::DeviceSeed(config.fleet_seed, id);
      DeviceStats stats;
      stats.device_id = id;
      FaultLedger ledger;
      CodeCache::Stats cache;
      Status status;
      {
        Result<std::unique_ptr<ClonedDevice>> device =
            CloneTraced(rec, id, device_seed, config, t);
        status = device.status();
        if (status.ok()) {
          (*device)->os().sensors().set_mode(ActivityForDevice(t.cohort, device_seed));
          {
            Scope s(rec, "fleet.run", id);
            status = (*device)->Run(config.sim_ms, t.regions, &stats, &ledger);
          }
          cache = (*device)->machine().cpu().code_cache_stats();
          Scope s(rec, "fleet.teardown", id);
          device->reset();
        }
      }
      stats.battery_impact_percent =
          fleet_internal::BatteryPercentFor(stats.cycles, config.sim_ms, config.energy);
      MetricRegistry device_metrics;
      if (status.ok()) {
        Scope s(rec, "scope.record", id);
        fleet_internal::RecordDeviceMetrics(stats, &device_metrics);
        if (heterogeneous) {
          device_metrics.Add("fleet.cohort." + t.cohort.name, 1);
        }
        if (config.retain_device_stats) {
          report.devices[k] = stats;
        }
      }
      std::unique_lock<std::mutex> lock(merge_mu, std::defer_lock);
      {
        Scope s(rec, "fleet.merge_wait", id);
        lock.lock();
      }
      if (!status.ok()) {
        if (first_error.ok()) {
          first_error = Status(status.code(), StrFormat("device %d: %s", id,
                                                        status.message().c_str()));
        }
        return;
      }
      {
        Scope s(rec, "scope.merge", id);
        report.metrics.Merge(device_metrics);
      }
      {
        Scope s(rec, "fleet.ledger_merge", id);
        report.faults.Merge(ledger);
      }
      completed[k] = true;
      counts->AddDevice(stats);
      counts->AddCache(cache);
      if (checkpointing && first_error.ok()) {
        if (devices_since_checkpoint + 1 >= std::max(1, config.checkpoint_every_devices)) {
          first_error = write_checkpoint();
          devices_since_checkpoint = 0;
        } else {
          ++devices_since_checkpoint;
        }
      }
    };
    if (config.jobs == 1) {
      for (size_t k = 0; k < static_cast<size_t>(n); ++k) {
        run_one(k);
      }
    } else {
      Executor executor(config.jobs);
      counts->threads = executor.thread_count();
      executor.ParallelFor(static_cast<size_t>(n), run_one);
    }
  }
  RETURN_IF_ERROR(first_error);
  if (checkpointing) {
    RETURN_IF_ERROR(write_checkpoint());
  }
  {
    Scope s(rec, "fleet.aggregate");
    RecomputeFleetAggregate(&report);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Traced campaign replay: RunCampaign (src/fleet/campaign.cc) with no resume,
// rebuilt from its public calls. Its report must digest byte-identically.

void AddStats(DeviceStats* into, const DeviceStats& delta) {
  into->cycles += delta.cycles;
  into->data_accesses += delta.data_accesses;
  into->syscalls += delta.syscalls;
  into->dispatches += delta.dispatches;
  into->faults += delta.faults;
  into->pucs += delta.pucs;
  into->watchdog_resets += delta.watchdog_resets;
  into->instructions += delta.instructions;
}

void RecordCampaignDeviceMetrics(const CampaignDeviceRow& row, MetricRegistry* m) {
  fleet_internal::RecordDeviceMetrics(row.stats, m);
  switch (row.outcome) {
    case OtaOutcome::kUpdated:
      m->Add("campaign.updated", 1);
      break;
    case OtaOutcome::kRejected:
      m->Add("campaign.rejected", 1);
      break;
    case OtaOutcome::kRolledBack:
      m->Add("campaign.rolled_back", 1);
      break;
    case OtaOutcome::kNotAttempted:
      break;
  }
  m->Add(StrFormat("campaign.version.%u", row.firmware_version), 1);
  m->Add("campaign.verify_cycles", row.verify_cycles);
  m->Observe("device.verify_cycles", row.verify_cycles);
}

const std::vector<CampaignStage>& DefaultStages() {
  static const std::vector<CampaignStage> kStages = {{5, 0.25}, {50, 0.25}, {100, 0.25}};
  return kStages;
}

struct CampaignTemplates {
  Template from;
  Template to;
  OtaImage deploy;
};

Status ReplayCampaignDevice(SpanRecorder* rec, int id, const CampaignConfig& config,
                            const CampaignTemplates& ctx, CampaignDeviceRow* row,
                            FaultLedger* ledger, LayerCounts* counts, std::mutex* counts_mu) {
  const FleetConfig& fleet = config.fleet;
  const uint32_t device_seed = fleet_internal::DeviceSeed(fleet.fleet_seed, id);
  row->stats.device_id = id;
  row->firmware_version = config.from_version;
  CodeCache::Stats cache_total;
  auto add_cache = [&](ClonedDevice& d) {
    const CodeCache::Stats& s = d.machine().cpu().code_cache_stats();
    cache_total.misses += s.misses;
    cache_total.hits += s.hits;
    cache_total.slow_paths += s.slow_paths;
    cache_total.invalidations += s.invalidations;
  };

  ASSIGN_OR_RETURN(std::unique_ptr<ClonedDevice> device,
                   CloneTraced(rec, id, device_seed, fleet, ctx.from));
  {
    Scope s(rec, "fleet.run", id);
    RETURN_IF_ERROR(device->Run(fleet.sim_ms, ctx.from.regions, &row->stats, ledger));
  }
  add_cache(*device);

  MacVerifyRun verify;
  {
    Scope s(rec, "ota.verify", id);
    ASSIGN_OR_RETURN(verify, SimulateImageVerify(ctx.deploy, config.key, fleet.fram_wait_states,
                                                 fleet.predecode));
  }
  row->verify_cycles = verify.cycles;
  uint64_t span_ms = fleet.sim_ms;
  std::unique_ptr<ClonedDevice> updated;
  if (!verify.accepted) {
    row->outcome = OtaOutcome::kRejected;
  } else {
    const uint32_t health_seed = device_seed ^ fleet_internal::Mix32(config.to_version);
    ASSIGN_OR_RETURN(updated, CloneTraced(rec, id, health_seed, fleet, ctx.to));
    {
      Scope s(rec, "ota.bootloader", id);
      BlData bl;
      bl.active_bank = 1;
      bl.attempt_count = 1;
      bl.current_version = config.to_version;
      bl.prior_version = config.from_version;
      WriteBlData(&updated->machine().bus(), bl);
    }
    DeviceStats health;
    health.device_id = id;
    {
      Scope s(rec, "fleet.health_run", id);
      RETURN_IF_ERROR(updated->Run(config.health_ms, ctx.to.regions, &health, ledger));
    }
    add_cache(*updated);
    AddStats(&row->stats, health);
    span_ms += config.health_ms;
    Scope s(rec, "ota.bootloader", id);
    ASSIGN_OR_RETURN(BlData after, ReadBlData(updated->machine().bus()));
    const uint64_t storm = health.pucs + health.watchdog_resets;
    if (storm >= static_cast<uint64_t>(config.storm_threshold)) {
      after.active_bank = 0;
      after.attempt_count = 0;
      after.rollback_count = static_cast<uint16_t>(after.rollback_count + 1);
      after.current_version = config.from_version;
      after.prior_version = config.to_version;
      WriteBlData(&updated->machine().bus(), after);
      row->outcome = OtaOutcome::kRolledBack;
    } else {
      after.attempt_count = 0;
      WriteBlData(&updated->machine().bus(), after);
      row->outcome = OtaOutcome::kUpdated;
      row->firmware_version = config.to_version;
    }
  }
  row->stats.battery_impact_percent =
      fleet_internal::BatteryPercentFor(row->stats.cycles, span_ms, fleet.energy);
  {
    Scope s(rec, "fleet.teardown", id);
    device.reset();
    updated.reset();
  }
  std::lock_guard<std::mutex> lock(*counts_mu);
  counts->AddCache(cache_total);
  counts->verify_cycles += verify.cycles;
  return OkStatus();
}

Result<CampaignReport> ReplayCampaign(SpanRecorder* rec, const CampaignConfig& config_in,
                                      LayerCounts* counts) {
  CampaignConfig config = config_in;
  if (config.stages.empty()) {
    config.stages = DefaultStages();
  }
  config.fleet.retain_device_stats = true;
  ASSIGN_OR_RETURN(std::vector<AppSource> from_sources,
                   fleet_internal::ResolveApps(&config.fleet.apps));
  if (config.to_apps.empty()) {
    config.to_apps = config.fleet.apps;
  }
  ASSIGN_OR_RETURN(std::vector<AppSource> to_sources,
                   fleet_internal::ResolveApps(&config.to_apps));

  auto ctx = std::make_unique<CampaignTemplates>();
  AftOptions aft;
  aft.model = config.fleet.model;
  ASSIGN_OR_RETURN(ctx->from.firmware, BuildTimed(rec, from_sources, aft, nullptr, counts));
  ASSIGN_OR_RETURN(ctx->to.firmware, BuildTimed(rec, to_sources, aft, nullptr, counts));
  {
    Scope s(rec, "ota.pack");
    const std::vector<uint8_t> bytes = EncodeOtaImage(PackOtaImage(
        ctx->to.firmware.image, config.to_version, config.fleet.model, config.key));
    ASSIGN_OR_RETURN(ctx->deploy, DecodeOtaImage(bytes));
  }
  const OsOptions options = TemplateOptions(config.fleet);
  RETURN_IF_ERROR(BootTemplate(rec, options, config.fleet.predecode, &ctx->from, counts));
  RETURN_IF_ERROR(BootTemplate(rec, options, config.fleet.predecode, &ctx->to, counts));

  const int n = config.fleet.device_count;
  CampaignReport report;
  report.config = config;
  report.devices.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    report.devices[static_cast<size_t>(i)].stats.device_id = i;
    report.devices[static_cast<size_t>(i)].firmware_version = config.from_version;
  }
  const std::vector<int> order = CampaignRolloutOrder(n, config.rollout_seed);
  std::mutex merge_mu;
  Status first_error;  // guarded by merge_mu
  std::mutex counts_mu;
  uint64_t stage_id = 0;
  auto run_one = [&](int id) {
    Scope device_span(rec, "fleet.device", id, stage_id);
    CampaignDeviceRow fresh;
    FaultLedger ledger;
    const Status status =
        ReplayCampaignDevice(rec, id, config, *ctx, &fresh, &ledger, counts, &counts_mu);
    MetricRegistry device_metrics;
    if (status.ok()) {
      report.devices[static_cast<size_t>(id)] = fresh;
      Scope s(rec, "scope.record", id);
      RecordCampaignDeviceMetrics(fresh, &device_metrics);
    }
    std::unique_lock<std::mutex> lock(merge_mu, std::defer_lock);
    {
      Scope s(rec, "fleet.merge_wait", id);
      lock.lock();
    }
    if (!status.ok()) {
      if (first_error.ok()) {
        first_error = status;
      }
      return;
    }
    {
      Scope s(rec, "scope.merge", id);
      report.metrics.Merge(device_metrics);
    }
    {
      Scope s(rec, "fleet.ledger_merge", id);
      report.faults.Merge(ledger);
    }
    std::lock_guard<std::mutex> counts_lock(counts_mu);
    counts->AddDevice(fresh.stats);
  };

  std::optional<Executor> executor;
  if (config.fleet.jobs != 1) {
    executor.emplace(config.fleet.jobs);
    counts->threads = executor->thread_count();
  }
  size_t stage_begin = 0;
  for (size_t s = 0; s < config.stages.size(); ++s) {
    const CampaignStage& stage = config.stages[s];
    const size_t stage_end = std::min<size_t>(
        static_cast<size_t>(n),
        (static_cast<size_t>(n) * static_cast<size_t>(stage.percent) + 99) / 100);
    {
      Scope stage_span(rec, "fleet.stage");
      stage_id = stage_span.id();
      const size_t count = stage_end - stage_begin;
      if (executor.has_value()) {
        executor->ParallelFor(count, [&](size_t i) { run_one(order[stage_begin + i]); });
      } else {
        for (size_t i = 0; i < count; ++i) {
          run_one(order[stage_begin + i]);
        }
      }
    }
    RETURN_IF_ERROR(first_error);
    CampaignStageResult result;
    result.percent = stage.percent;
    result.first_slot = static_cast<int>(stage_begin);
    result.device_count = static_cast<int>(stage_end - stage_begin);
    for (size_t k = stage_begin; k < stage_end; ++k) {
      switch (report.devices[static_cast<size_t>(order[k])].outcome) {
        case OtaOutcome::kUpdated:
          ++result.updated;
          break;
        case OtaOutcome::kRejected:
          ++result.rejected;
          break;
        case OtaOutcome::kRolledBack:
          ++result.rolled_back;
          break;
        case OtaOutcome::kNotAttempted:
          break;
      }
    }
    if (result.device_count > 0) {
      result.failure_rate = static_cast<double>(result.rejected + result.rolled_back) /
                            static_cast<double>(result.device_count);
    }
    result.aborted_after = result.failure_rate > stage.max_failure_rate;
    report.stages.push_back(result);
    if (result.aborted_after) {
      report.aborted_stage = static_cast<int>(s);
      break;
    }
    stage_begin = stage_end;
  }
  uint64_t not_attempted = 0;
  for (const CampaignDeviceRow& row : report.devices) {
    not_attempted += row.outcome == OtaOutcome::kNotAttempted ? 1 : 0;
  }
  if (not_attempted > 0) {
    report.metrics.Add("campaign.not_attempted", not_attempted);
    report.metrics.Add(StrFormat("campaign.version.%u", config.from_version), not_attempted);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  // One untraced iteration through the library's own entry point.
  virtual Status Untraced(Sample* sample, Tally* tally) = 0;
  // One traced iteration of the same work; checks it against the untraced
  // result. *wall_s is the duration of its "workload" root span.
  virtual Status Traced(SpanRecorder* rec, LayerCounts* counts, double* wall_s,
                        Tally* tally) = 0;
  // Output checks that need extra runs (the reference-core slice).
  virtual Status FinalChecks(Tally* tally) = 0;
  // Worker threads the workload keeps busy: the calibration kernel runs on
  // as many.
  virtual int Threads() const = 0;
};

class FleetWorkload : public Workload {
 public:
  FleetWorkload(FleetConfig config, std::vector<ProbeFirmware> probe, uint64_t seed,
                bool crasher_cohort)
      : config_(std::move(config)),
        probe_(std::move(probe)),
        seed_(seed),
        crasher_cohort_(crasher_cohort) {}

  // One firmware per cohort, as RunFleet builds them.
  static Result<std::vector<ProbeFirmware>> ProbeSet(const FleetConfig& config) {
    std::vector<ProbeFirmware> set;
    for (Cohort cohort : CohortsOf(config)) {
      ProbeFirmware firmware;
      ASSIGN_OR_RETURN(firmware.sources, fleet_internal::ResolveApps(&cohort.apps));
      firmware.aft.model = cohort.model;
      firmware.aft.optimize_checks = config.check_opt;
      set.push_back(std::move(firmware));
    }
    return set;
  }

  Status Untraced(Sample* sample, Tally* tally) override {
    RETURN_IF_ERROR(BuildProbe(probe_, sample, tally, &probe_hashes_));
    const int64_t t0 = NowNs();
    ASSIGN_OR_RETURN(FleetReport report, RunFleet(config_));
    sample->wall_s = SecondsSince(t0);
    sample->setup_s = report.boot_seconds;
    sample->run_s = report.run_seconds;
    sample->devices = static_cast<uint64_t>(config_.device_count);
    sample->instructions = report.aggregate.total_instructions;
    tally->attempted += sample->devices;
    const std::string digest = FleetDigest(report);
    if (digest_.empty()) {
      digest_ = digest;
      if (!config_.checkpoint_path.empty()) {
        checkpoint_bytes_ = ReadFile(config_.checkpoint_path);
      }
    } else if (digest != digest_) {
      tally->Fail(sample->devices, "fleet digest differs between iterations of one seed");
    }
    if (crasher_cohort_) {
      CheckCrasherLedger(report.faults, report.aggregate.total_faults, sample->devices, tally);
    }
    return OkStatus();
  }

  Status Traced(SpanRecorder* rec, LayerCounts* counts, double* wall_s, Tally* tally) override {
    FleetConfig config = config_;
    if (!config.checkpoint_path.empty()) {
      config.checkpoint_path += ".replay";
    }
    const int64_t t0 = NowNs();
    Result<FleetReport> report = [&] {
      Scope root(rec, "workload");
      return ReplayFleet(rec, config, counts);
    }();
    *wall_s = SecondsSince(t0);
    RETURN_IF_ERROR(report.status());
    const uint64_t n = static_cast<uint64_t>(config.device_count);
    tally->attempted += n;
    if (FleetDigest(*report) != digest_) {
      tally->Fail(n, "traced replay digest differs from RunFleet's");
    }
    if (!config.checkpoint_path.empty() && ReadFile(config.checkpoint_path) != checkpoint_bytes_) {
      tally->Fail(n, "traced replay's final checkpoint differs from RunFleet's");
    }
    if (crasher_cohort_) {
      CheckCrasherLedger(report->faults, report->aggregate.total_faults, n, tally);
    }
    return OkStatus();
  }

  int Threads() const override { return config_.jobs; }

  Status FinalChecks(Tally* tally) override {
    // A seeded shard-sized slice of the id range, simulated on both cores
    // with rows retained; rows must match field for field.
    FleetConfig slice = config_;
    slice.checkpoint_path.clear();
    slice.retain_device_stats = true;
    slice.jobs = 1;
    slice.shard_count = config_.device_count / kSliceDevices;
    slice.shard_index = static_cast<int>(DeriveSeed(seed_, 7) % slice.shard_count);
    ASSIGN_OR_RETURN(FleetReport fast, RunFleet(slice));
    slice.predecode = false;
    ASSIGN_OR_RETURN(FleetReport reference, RunFleet(slice));
    const ShardRange range =
        ShardRangeFor(slice.device_count, slice.shard_index, slice.shard_count);
    tally->attempted += 2 * static_cast<uint64_t>(range.size());
    for (int id = range.lo; id < range.hi; ++id) {
      const DeviceStats& f = fast.devices[static_cast<size_t>(id)];
      const DeviceStats& r = reference.devices[static_cast<size_t>(id)];
      if (!SameRow(f, r)) {
        tally->Fail(1, StrFormat("device %d: fast-core row differs from the interpreter's", id));
      }
      if (crasher_cohort_) {
        const Cohort& cohort =
            fast.config.profile.cohorts[static_cast<size_t>(CohortForDevice(
                fast.config.profile, config_.fleet_seed, id))];
        const bool runs_crasher =
            std::find(cohort.apps.begin(), cohort.apps.end(), "crasher") != cohort.apps.end();
        if (!runs_crasher && f.faults != 0) {
          tally->Fail(1, StrFormat("device %d in cohort %s without the crasher app faulted",
                                   id, cohort.name.c_str()));
        }
      }
    }
    return OkStatus();
  }

 private:
  // The crasher cohort is the only one that may fault: every bucket must
  // name the crasher app and the ledger must hold every counted fault.
  static void CheckCrasherLedger(const FaultLedger& ledger, uint64_t total_faults,
                                 uint64_t devices, Tally* tally) {
    if (total_faults == 0 || ledger.total_faults() != total_faults) {
      tally->Fail(devices, "crasher fleet: ledger does not hold every recorded fault");
    }
    for (const FaultBucket* bucket : ledger.TopK(ledger.bucket_count())) {
      if (bucket->app_name != "crasher") {
        tally->Fail(bucket->devices, StrFormat("fault bucket names app '%s', not crasher",
                                               bucket->app_name.c_str()));
      }
    }
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }

  FleetConfig config_;
  std::vector<ProbeFirmware> probe_;
  uint64_t seed_;
  bool crasher_cohort_;
  std::string digest_;
  std::string checkpoint_bytes_;
  std::vector<uint64_t> probe_hashes_;
};

class CampaignWorkload : public Workload {
 public:
  CampaignWorkload(CampaignConfig config, std::vector<ProbeFirmware> probe)
      : config_(std::move(config)), probe_(std::move(probe)) {}

  // The old and the new firmware, as RunCampaign builds them.
  static Result<std::vector<ProbeFirmware>> ProbeSet(const CampaignConfig& config) {
    std::vector<ProbeFirmware> set;
    for (std::vector<std::string> apps : {config.fleet.apps, config.to_apps}) {
      ProbeFirmware firmware;
      ASSIGN_OR_RETURN(firmware.sources, fleet_internal::ResolveApps(&apps));
      firmware.aft.model = config.fleet.model;
      set.push_back(std::move(firmware));
    }
    return set;
  }

  Status Untraced(Sample* sample, Tally* tally) override {
    RETURN_IF_ERROR(BuildProbe(probe_, sample, tally, &probe_hashes_));
    const int64_t t0 = NowNs();
    ASSIGN_OR_RETURN(CampaignReport report, RunCampaign(config_));
    sample->wall_s = SecondsSince(t0);
    sample->setup_s = report.boot_seconds;
    sample->run_s = report.run_seconds;
    sample->devices = report.devices.size();
    for (const CampaignDeviceRow& row : report.devices) {
      sample->instructions += row.stats.instructions;
    }
    tally->attempted += sample->devices;
    CheckOutcome(report, tally);
    const std::string digest = CampaignDigest(report);
    if (digest_.empty()) {
      digest_ = digest;
      rows_ = report.devices;
    } else if (digest != digest_) {
      tally->Fail(sample->devices, "campaign digest differs between iterations of one seed");
    }
    return OkStatus();
  }

  Status Traced(SpanRecorder* rec, LayerCounts* counts, double* wall_s, Tally* tally) override {
    const int64_t t0 = NowNs();
    Result<CampaignReport> report = [&] {
      Scope root(rec, "workload");
      return ReplayCampaign(rec, config_, counts);
    }();
    *wall_s = SecondsSince(t0);
    RETURN_IF_ERROR(report.status());
    tally->attempted += report->devices.size();
    CheckOutcome(*report, tally);
    if (CampaignDigest(*report) != digest_) {
      tally->Fail(report->devices.size(), "traced replay digest differs from RunCampaign's");
    }
    return OkStatus();
  }

  int Threads() const override { return config_.fleet.jobs; }

  Status FinalChecks(Tally* tally) override {
    // Device rows depend only on (seed, id), so a campaign over the first
    // kSliceDevices ids on the reference interpreter must reproduce them.
    CampaignConfig slice = config_;
    slice.fleet.device_count = kSliceDevices;
    slice.fleet.predecode = false;
    slice.fleet.jobs = 1;
    ASSIGN_OR_RETURN(CampaignReport reference, RunCampaign(slice));
    tally->attempted += kSliceDevices;
    for (int id = 0; id < kSliceDevices; ++id) {
      const CampaignDeviceRow& f = rows_[static_cast<size_t>(id)];
      const CampaignDeviceRow& r = reference.devices[static_cast<size_t>(id)];
      if (!SameRow(f.stats, r.stats) || f.outcome != r.outcome ||
          f.firmware_version != r.firmware_version || f.verify_cycles != r.verify_cycles) {
        tally->Fail(1, StrFormat("device %d: fast-core row differs from the interpreter's", id));
      }
    }
    return OkStatus();
  }

 private:
  void CheckOutcome(const CampaignReport& report, Tally* tally) const {
    if (report.aborted_stage != -1) {
      tally->Fail(report.devices.size(),
                  StrFormat("campaign aborted after stage %d", report.aborted_stage));
      return;
    }
    uint64_t behind = 0;
    for (const CampaignDeviceRow& row : report.devices) {
      behind += row.firmware_version == config_.to_version ? 0 : 1;
    }
    if (behind > 0) {
      tally->Fail(behind, StrFormat("%llu device(s) did not end on v%u",
                                    static_cast<unsigned long long>(behind),
                                    config_.to_version));
    }
  }

  CampaignConfig config_;
  std::vector<ProbeFirmware> probe_;
  std::string digest_;
  std::vector<CampaignDeviceRow> rows_;
  std::vector<uint64_t> probe_hashes_;
};

class ToolchainWorkload : public Workload {
 public:
  explicit ToolchainWorkload(uint64_t seed) : seed_(seed) {
    fleet_.fleet_seed = DeriveSeed(seed, 12);
    fleet_.sim_ms = kBootSimMs;
  }

  Status Untraced(Sample* sample, Tally* tally) override {
    const int64_t t0 = NowNs();
    RETURN_IF_ERROR(Iteration(nullptr, sample, nullptr, tally));
    sample->wall_s = SecondsSince(t0);
    return OkStatus();
  }

  Status Traced(SpanRecorder* rec, LayerCounts* counts, double* wall_s, Tally* tally) override {
    Sample sample;
    const int64_t t0 = NowNs();
    {
      Scope root(rec, "workload");
      RETURN_IF_ERROR(Iteration(rec, &sample, counts, tally));
    }
    *wall_s = SecondsSince(t0);
    return OkStatus();
  }

  // Rebuilding the first iteration's draws must reproduce every image hash.
  Status FinalChecks(Tally* tally) override {
    const std::vector<Draw> draws = Draws(0);
    for (size_t i = 0; i < draws.size(); ++i) {
      AftOptions aft;
      aft.model = draws[i].model;
      ASSIGN_OR_RETURN(Firmware firmware, BuildFirmware(draws[i].sources, aft));
      ++tally->attempted;
      if (FirmwareImageHash(firmware.image) != first_hashes_[i]) {
        tally->Fail(1, StrFormat("build %zu: firmware hash changed between builds", i));
      }
    }
    return OkStatus();
  }

  int Threads() const override { return 1; }

 private:
  struct Draw {
    std::vector<AppSource> sources;
    MemoryModel model;
  };

  // The builds of iteration `iteration`: kToolchainSets stratified sets.
  // Every iteration draws afresh, so a run samples many groupings; a fixed
  // grouping leaves the allocator in one seed-specific state, and that
  // alone moved boot and device times by a third between seeds.
  std::vector<Draw> Draws(uint64_t iteration) const {
    const std::vector<AppSpec>& suite = AmuletAppSuite();
    const size_t n = suite.size();
    uint64_t state = DeriveSeed(seed_, 11) ^ (iteration << 32);
    auto next = [&] {
      state = fleet_internal::SplitMix64(state);
      return state;
    };
    std::vector<Draw> draws;
    for (int set = 0; set < kToolchainSets; ++set) {
      // Subset sizes 1..n in seeded order; each suite app has a quota of
      // (n + 1) / 2 memberships. Filling the sizes largest first from the
      // apps with the most quota left (seeded tie-break) uses every quota
      // exactly: sum(1..n) = n * (n + 1) / 2 and, by Gale-Ryser, the greedy
      // choice realizes any feasible pattern.
      std::vector<size_t> quota(n, (n + 1) / 2);
      std::vector<std::vector<size_t>> members(n + 1);
      for (size_t k = n; k >= 1; --k) {
        std::vector<std::pair<uint64_t, size_t>> order;  // (rank key, app)
        for (size_t a = 0; a < n; ++a) {
          order.emplace_back((static_cast<uint64_t>(n - quota[a]) << 56) | (next() >> 8), a);
        }
        std::sort(order.begin(), order.end());
        for (size_t j = 0; j < k; ++j) {
          members[k].push_back(order[j].second);
          --quota[order[j].second];
        }
        // Suite order inside a firmware: app order alone changes boot and
        // run cost, which would make the seed, not the code, move figures.
        std::sort(members[k].begin(), members[k].end());
      }
      std::vector<size_t> sizes(n);
      for (size_t i = 0; i < n; ++i) {
        sizes[i] = i + 1;
      }
      for (size_t i = n; i > 1; --i) {
        std::swap(sizes[i - 1], sizes[next() % i]);
      }
      for (size_t k : sizes) {
        std::vector<AppSource> sources;
        for (size_t a : members[k]) {
          sources.push_back({suite[a].name, suite[a].source});
        }
        for (MemoryModel model : kModels) {
          draws.push_back({sources, model});
        }
      }
    }
    return draws;
  }

  Status Iteration(SpanRecorder* rec, Sample* sample, LayerCounts* counts, Tally* tally) {
    const std::vector<Draw> draws = Draws(iterations_++);
    const bool first = first_hashes_.empty();
    for (size_t i = 0; i < draws.size(); ++i) {
      AftOptions aft;
      aft.model = draws[i].model;
      auto t = std::make_unique<Template>();
      double ms = 0;
      ASSIGN_OR_RETURN(t->firmware, BuildTimed(rec, draws[i].sources, aft, &ms, counts));
      sample->build_ms.push_back(ms);
      ++sample->builds;
      sample->build_s += ms / 1e3;
      ++tally->attempted;
      if (first) {
        first_hashes_.push_back(FirmwareImageHash(t->firmware.image));
      }
      if (draws[i].model == MemoryModel::kMpu) {
        RETURN_IF_ERROR(BootCheck(rec, static_cast<int>(i), t.get(), sample, counts, tally));
      }
    }
    return OkStatus();
  }

  // Boots the image as a template and runs one device from its snapshot;
  // neither may fault (no suite app faults on its own).
  Status BootCheck(SpanRecorder* rec, int index, Template* t, Sample* sample,
                   LayerCounts* counts, Tally* tally) {
    const int64_t t0 = NowNs();
    RETURN_IF_ERROR(BootTemplate(rec, TemplateOptions(fleet_), true, t, counts));
    const int64_t t1 = NowNs();
    sample->setup_s += static_cast<double>(t1 - t0) / 1e9;
    DeviceStats stats;
    stats.device_id = index;
    FaultLedger ledger;
    {
      Scope device_span(rec, "fleet.device", index);
      const uint32_t device_seed = fleet_internal::DeviceSeed(fleet_.fleet_seed, index);
      ASSIGN_OR_RETURN(std::unique_ptr<ClonedDevice> device,
                       CloneTraced(rec, index, device_seed, fleet_, *t));
      // One activity mode for every boot check, so its simulated work
      // depends on the image alone and not on a seeded rest/walk/run draw.
      device->os().sensors().set_mode(ActivityMode::kWalking);
      {
        Scope s(rec, "fleet.run", index);
        RETURN_IF_ERROR(device->Run(fleet_.sim_ms, t->regions, &stats, &ledger));
      }
      if (counts != nullptr) {
        counts->AddDevice(stats);
        counts->AddCache(device->machine().cpu().code_cache_stats());
      }
      Scope s(rec, "fleet.teardown", index);
      device.reset();
    }
    sample->run_s += SecondsSince(t1);
    ++sample->devices;
    sample->instructions += stats.instructions;
    ++tally->attempted;
    if (stats.faults != 0 || !t->os->faults().empty() || !ledger.empty()) {
      tally->Fail(1, StrFormat("build %d: image faulted on the simulator", index));
    }
    return OkStatus();
  }

  uint64_t seed_;
  FleetConfig fleet_;  // simulator settings of the boot check
  uint64_t iterations_ = 0;
  std::vector<uint64_t> first_hashes_;  // image hashes of iteration 0
};

Result<std::unique_ptr<Workload>> MakeWorkload(const RunArgs& args) {
  const std::string& name = args.workload;
  // Each seed salt below decorrelates one workload's streams from another's.
  if (name == "fleet_steady") {
    // The device execute path alone: serial (the executor is bypassed) and
    // long devices, so bus-side counting or a faster core shows here and a
    // cheaper clone barely does.
    FleetConfig config;
    config.device_count = kSteadyDevices;
    config.apps = {"pedometer", "clock", "hr", "falldetection"};
    config.model = MemoryModel::kMpu;
    config.fleet_seed = DeriveSeed(args.seed, 1);
    config.sim_ms = kSteadySimMs;
    config.jobs = 1;
    config.retain_device_stats = false;
    ASSIGN_OR_RETURN(std::vector<ProbeFirmware> probe, FleetWorkload::ProbeSet(config));
    return std::unique_ptr<Workload>(new FleetWorkload(config, probe, args.seed, false));
  }
  if (name == "fleet_churn") {
    // Per-device fixed cost and the executor: short devices, five firmwares,
    // faults, checkpoints. A shared cohort cache, device reuse or an
    // executor swap shows here.
    FleetConfig config;
    config.device_count = kChurnDevices;
    for (const char* spec : {"none:1:none", "fl:1:fl", "sw:1:sw", "mpu:1:mpu",
                             "crasher:1:mpu:pedometer+crasher"}) {
      ASSIGN_OR_RETURN(Cohort cohort, ParseCohortSpec(spec));
      config.profile.cohorts.push_back(cohort);
    }
    config.fleet_seed = DeriveSeed(args.seed, 2);
    config.sim_ms = kChurnSimMs;
    config.jobs = Jobs();
    config.retain_device_stats = false;
    config.checkpoint_path = args.out_dir + "/fleet_churn.ckpt";
    config.checkpoint_every_devices = kChurnCheckpointEvery;
    config.checkpoint_every_seconds = 1e9;  // cadence by device count only
    ASSIGN_OR_RETURN(std::vector<ProbeFirmware> probe, FleetWorkload::ProbeSet(config));
    return std::unique_ptr<Workload>(new FleetWorkload(config, probe, args.seed, true));
  }
  if (name == "ota_campaign") {
    // The campaign's own device loop: two clones per device, simulated MAC
    // verification, and stage barriers set by the slowest device.
    CampaignConfig config;
    config.fleet.device_count = kOtaDevices;
    config.fleet.apps = {"pedometer", "clock", "hr"};
    config.fleet.model = MemoryModel::kMpu;
    config.fleet.fleet_seed = DeriveSeed(args.seed, 3);
    config.fleet.sim_ms = kOtaSimMs;
    config.fleet.jobs = Jobs();
    config.to_apps = {"pedometer", "clock", "hr", "falldetection"};
    config.health_ms = kOtaHealthMs;
    config.rollout_seed = DeriveSeed(args.seed, 4);
    ASSIGN_OR_RETURN(std::vector<ProbeFirmware> probe, CampaignWorkload::ProbeSet(config));
    return std::unique_ptr<Workload>(new CampaignWorkload(config, probe));
  }
  if (name == "toolchain_build") {
    // The compile layers alone; ToolchainWorkload::Draws stratifies the
    // seeded subsets so every seed compiles the same code.
    return std::unique_ptr<Workload>(new ToolchainWorkload(args.seed));
  }
  return InvalidArgumentError(StrFormat("unknown workload '%s'", name.c_str()));
}

// ---------------------------------------------------------------------------
// Metrics.

// Peak resident set of this process image: VmHWM, not getrusage's
// ru_maxrss, which Linux carries over from the parent across fork + exec
// (the launcher's own footprint would read as ours).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// End-to-end metrics over the measured iterations: medians of per-iteration
// values, build percentiles over every build of the run. With `normalize`
// each iteration's times are scaled to the reference host speed (see
// CalibrationKernelSeconds; build CPU times by the kernel's CPU time);
// without, they are the raw host times.
std::map<std::string, double> EndToEnd(const std::vector<Sample>& samples, bool normalize) {
  std::vector<double> devices_per_s, mips, wall, setup, builds_per_s, build_ms;
  for (const Sample& s : samples) {
    const double scale = normalize ? kReferenceKernelSeconds / s.kernel_s : 1.0;
    const double single = normalize ? kReferenceKernelSeconds / s.single_kernel_s : 1.0;
    const double build = normalize ? kReferenceKernelSeconds / s.single_kernel_cpu_s : 1.0;
    const double run_s = s.run_s * scale;
    devices_per_s.push_back(static_cast<double>(s.devices) / run_s);
    mips.push_back(static_cast<double>(s.instructions) / run_s / 1e6);
    wall.push_back(s.wall_s * scale);
    setup.push_back(s.setup_s * single);
    for (double ms : s.build_ms) {
      build_ms.push_back(ms * build);
    }
    builds_per_s.push_back(static_cast<double>(s.builds) / (s.build_s * build));
  }
  return {
      {"devices_per_s", Median(devices_per_s)},
      {"sim_mips", Median(mips)},
      {"wall_s", Median(wall)},
      {"setup_s", Median(setup)},
      {"peak_rss_mb", PeakRssMb()},
      {"builds_per_s", Median(builds_per_s)},
      {"build_ms_p50", NearestRank(build_ms, 50)},
      {"build_ms_p90", NearestRank(build_ms, 90)},
  };
}

// Container spans: their self time is loop and bookkeeping overhead of the
// harness, not a layer.
bool IsContainer(const std::string& name) {
  return name == "workload" || name == "fleet.device" || name == "aft.phase_replay";
}

// Per-layer values of one traced iteration. Timings are summed self time
// over the iteration (thread time: a parallel phase sums its workers).
std::map<std::string, double> LayerValues(const std::vector<Span>& spans,
                                          const LayerCounts& c) {
  const std::map<std::string, int64_t> self = SelfTimes(spans);
  auto ms = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
  };
  std::map<std::string, double> v;
  v["lang.parse_ms"] = ms("lang.parse");
  v["lang.sema_ms"] = ms("lang.sema");
  v["compiler.lower_ms"] = ms("compiler.lower");
  v["aft.checks_ms"] = ms("aft.checks");
  v["aft.opt_ms"] = ms("aft.opt");
  v["compiler.codegen_ms"] = ms("compiler.codegen");
  v["asm.assemble_ms"] = ms("asm.assemble");
  v["aft.build_ms"] = ms("aft.build");
  v["aft.checks_inserted"] = static_cast<double>(c.checks_inserted);
  v["aft.checks_elided"] = static_cast<double>(c.checks_elided);
  v["aft.image_bytes"] = static_cast<double>(c.image_bytes);
  v["os.boot_ms"] = ms("os.boot");
  v["mcu.snapshot_ms"] = ms("mcu.snapshot");
  v["mcu.snapshot_bytes"] = static_cast<double>(c.snapshot_bytes);
  v["fleet.clone_ms"] = ms("fleet.clone");
  v["fleet.run_ms"] = ms("fleet.run");
  v["fleet.teardown_ms"] = ms("fleet.teardown");
  const double lookups = static_cast<double>(c.hits + c.fills);
  v["isa.predecode_fills"] = static_cast<double>(c.fills);
  v["isa.cache_hit_ratio"] = lookups > 0 ? static_cast<double>(c.hits) / lookups : 0;
  v["isa.slow_path_frac"] = lookups > 0 ? static_cast<double>(c.slow_paths) / lookups : 0;
  v["mcu.invalidations"] = static_cast<double>(c.invalidations);
  const double devices = static_cast<double>(std::max<uint64_t>(1, c.devices));
  v["mcu.instructions_per_device"] = static_cast<double>(c.instructions) / devices;
  v["mcu.bus_data_accesses_per_device"] = static_cast<double>(c.data_accesses) / devices;
  v["os.syscalls_per_device"] = static_cast<double>(c.syscalls) / devices;
  v["os.dispatches_per_device"] = static_cast<double>(c.dispatches) / devices;
  v["fleet.faults_recorded"] = static_cast<double>(c.faults);
  v["scope.record_us"] = ms("scope.record") * 1e3;
  v["scope.merge_us"] = ms("scope.merge") * 1e3;
  v["fleet.ledger_merge_us"] = ms("fleet.ledger_merge") * 1e3;
  v["fleet.merge_wait_us"] = ms("fleet.merge_wait") * 1e3;
  v["fleet.checkpoint_ms"] = ms("fleet.checkpoint");
  v["fleet.checkpoint_bytes"] = static_cast<double>(c.checkpoint_bytes);
  v["fleet.checkpoints"] = static_cast<double>(c.checkpoints);
  v["ota.pack_ms"] = ms("ota.pack");
  v["ota.verify_ms"] = ms("ota.verify");
  v["ota.verify_cycles"] = static_cast<double>(c.verify_cycles);
  v["fleet.health_run_ms"] = ms("fleet.health_run");
  v["workload.devices"] = static_cast<double>(c.devices);
  v["workload.builds"] = static_cast<double>(c.builds);

  // Executor: each device-phase span (fleet.devices, or one campaign
  // fleet.stage) and the device spans under it.
  std::map<uint64_t, const Span*> phases;
  for (const Span& s : spans) {
    if (std::string(s.name) == "fleet.devices" || std::string(s.name) == "fleet.stage") {
      phases[s.id] = &s;
    }
  }
  std::map<uint64_t, double> busy_ns;
  std::map<uint64_t, std::map<uint32_t, int64_t>> last_end;  // phase -> tid -> end
  for (const Span& s : spans) {
    if (std::string(s.name) == "fleet.device" && phases.count(s.parent) != 0) {
      busy_ns[s.parent] += static_cast<double>(s.t1_ns - s.t0_ns);
      int64_t& end = last_end[s.parent][s.tid];
      end = std::max(end, s.t1_ns);
    }
  }
  double phase_ns = 0;
  double stage_ns = 0;
  double busy_total = 0;
  double tail_ns = 0;
  for (const auto& [id, span] : phases) {
    const double wall = static_cast<double>(span->t1_ns - span->t0_ns);
    phase_ns += wall;
    if (std::string(span->name) == "fleet.stage") {
      stage_ns += wall;
    }
    busy_total += busy_ns[id];
    int64_t lo = INT64_MAX;
    int64_t hi = INT64_MIN;
    for (const auto& [tid, end] : last_end[id]) {
      lo = std::min(lo, end);
      hi = std::max(hi, end);
    }
    if (hi > lo) {
      tail_ns += static_cast<double>(hi - lo);
    }
  }
  v["fleet.stage_ms"] = stage_ns / 1e6;  // wall time: the slowest device ends a stage
  v["fleet.worker_busy_frac"] =
      phase_ns > 0 ? busy_total / (c.threads * phase_ns) : 0;
  v["fleet.tail_ms"] = tail_ns / 1e6;

  double total = 0;
  double containers = 0;
  for (const auto& [name, ns] : self) {
    total += static_cast<double>(ns);
    if (IsContainer(name)) {
      containers += static_cast<double>(ns);
    }
  }
  v["trace.attributed_frac"] = total > 0 ? 1.0 - containers / total : 0;
  return v;
}

std::string SelfTimeTable(const std::vector<Span>& spans) {
  const std::map<std::string, int64_t> self = SelfTimes(spans);
  std::vector<std::pair<int64_t, std::string>> rows;
  double total = 0;
  for (const auto& [name, ns] : self) {
    rows.emplace_back(ns, name);
    total += static_cast<double>(ns);
  }
  std::sort(rows.rbegin(), rows.rend());
  std::string out = StrFormat("  %-22s %12s %8s\n", "span (self time)", "ms", "share");
  for (const auto& [ns, name] : rows) {
    out += StrFormat("  %-22s %12.3f %7.2f%%\n", name.c_str(), static_cast<double>(ns) / 1e6,
                     total > 0 ? 100.0 * static_cast<double>(ns) / total : 0.0);
  }
  out += StrFormat("  %-22s %12.3f (thread time; %s is harness overhead)\n", "total",
                   total / 1e6, "workload/fleet.device/aft.phase_replay self");
  return out;
}

std::string ValueText(double v) { return StrFormat("%.12g", v); }

}  // namespace

Result<RunOutcome> RunWorkload(const RunArgs& args) {
  ASSIGN_OR_RETURN(std::unique_ptr<Workload> workload, MakeWorkload(args));
  std::filesystem::create_directories(args.out_dir);
  Tally tally;
  RunOutcome out;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;

  // Warm-up iteration (checked, not measured): heap growth and first-touch
  // page faults land here instead of in the first sample.
  Sample warmup;
  RETURN_IF_ERROR(workload->Untraced(&warmup, &tally));
  std::vector<Sample> samples;
  const int64_t t0 = NowNs();
  const int threads = workload->Threads();
  while (samples.size() < kMinIterations || SecondsSince(t0) < budget) {
    Sample sample;
    // CPU time of the one-thread pass, which normalizes the build times.
    double cpu_before = 0;
    double cpu_after = 0;
    const bool serial = threads <= 1;
    const double before = CalibrationKernelSeconds(threads, serial ? &cpu_before : nullptr);
    const double single_before = serial ? before : CalibrationKernelSeconds(1, &cpu_before);
    RETURN_IF_ERROR(workload->Untraced(&sample, &tally));
    const double after = CalibrationKernelSeconds(threads, serial ? &cpu_after : nullptr);
    const double single_after = serial ? after : CalibrationKernelSeconds(1, &cpu_after);
    sample.kernel_s = (before + after) / 2;
    sample.single_kernel_s = (single_before + single_after) / 2;
    sample.single_kernel_cpu_s = (cpu_before + cpu_after) / 2;
    samples.push_back(std::move(sample));
  }
  RETURN_IF_ERROR(workload->FinalChecks(&tally));
  const std::map<std::string, double> e2e = EndToEnd(samples, true);
  const std::map<std::string, double> raw = EndToEnd(samples, false);
  std::vector<double> kernel_s;
  std::vector<double> single_kernel_s;
  size_t build_samples = 0;
  for (const Sample& s : samples) {
    kernel_s.push_back(s.kernel_s);
    single_kernel_s.push_back(s.single_kernel_s);
    build_samples += s.build_ms.size();
  }

  out.report = StrFormat(
      "workload %s, seed %llu: %zu measured iteration(s); calibration kernel %.4f s on %d "
      "thread(s), %.4f s on 1 (reference %.3f s)\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), samples.size(),
      Median(kernel_s), threads, Median(single_kernel_s), kReferenceKernelSeconds);
  if (!PercentileSupported(build_samples, 90)) {
    out.report += StrFormat("  note: build_ms_p90 has fewer than 10 of %zu samples beyond it\n",
                            build_samples);
  }
  if (!args.trace) {
    out.report += StrFormat("  %-16s %16s %16s %s\n", "metric", "normalized", "raw", "unit");
    for (const MetricSpec& m : EndToEndMetrics()) {
      out.metrics.emplace_back(m.name, e2e.at(m.name));
      out.report += StrFormat("  %-16s %16s %16s %s\n", m.name,
                              ValueText(e2e.at(m.name)).c_str(),
                              ValueText(raw.at(m.name)).c_str(), m.unit);
    }
  } else {
    SpanRecorder rec;
    std::vector<std::map<std::string, double>> per_iteration;
    std::vector<double> traced_wall;
    std::vector<double> device_ms;
    std::vector<Span> first_spans;
    std::vector<Span> last_spans;
    const int64_t t1 = NowNs();
    while (per_iteration.size() < kMinIterations || SecondsSince(t1) < budget) {
      const double before = CalibrationKernelSeconds(threads);
      rec.Clear();
      LayerCounts counts;
      double wall = 0;
      RETURN_IF_ERROR(workload->Traced(&rec, &counts, &wall, &tally));
      const double kernel = (before + CalibrationKernelSeconds(threads)) / 2;
      std::vector<Span> spans = rec.Collect();
      per_iteration.push_back(LayerValues(spans, counts));
      traced_wall.push_back(wall * kReferenceKernelSeconds / kernel);
      for (const Span& s : spans) {
        if (std::string(s.name) == "fleet.device") {
          device_ms.push_back(static_cast<double>(s.t1_ns - s.t0_ns) / 1e6);
        }
      }
      if (first_spans.empty()) {
        first_spans = spans;
      }
      last_spans = std::move(spans);
    }
    std::map<std::string, double> layer;
    for (const auto& [name, value] : per_iteration.front()) {
      std::vector<double> values;
      for (const std::map<std::string, double>& it : per_iteration) {
        values.push_back(it.at(name));
      }
      layer[name] = Median(values);
    }
    layer["fleet.device_ms_p50"] = device_ms.empty() ? 0 : NearestRank(device_ms, 50);
    layer["fleet.device_ms_p99"] = device_ms.empty() ? 0 : NearestRank(device_ms, 99);
    // Both walls normalized, so host drift between the two halves cancels.
    layer["trace.overhead_frac"] = Median(traced_wall) / e2e.at("wall_s") - 1.0;
    for (const MetricSpec& m : PerLayerMetrics()) {
      out.metrics.emplace_back(m.name, layer.at(m.name));
      out.report += StrFormat("  %-34s %16s %s\n", m.name, ValueText(layer.at(m.name)).c_str(),
                              m.unit);
    }
    if (!device_ms.empty() && !PercentileSupported(device_ms.size(), 99)) {
      out.report += StrFormat("  note: fleet.device_ms_p99 has fewer than 10 of %zu samples "
                              "beyond it\n",
                              device_ms.size());
    }
    out.report += StrFormat("self time, last of %zu traced iteration(s):\n",
                            per_iteration.size());
    out.report += SelfTimeTable(last_spans);

    // Chrome trace of the first traced iteration, device spans of the first
    // kTraceDevices ids only.
    std::vector<Span> kept;
    for (const Span& s : first_spans) {
      if (s.device < kTraceDevices) {
        kept.push_back(s);
      }
    }
    const std::string json = ChromeTraceJson(kept);
    const std::string trace_path = args.out_dir + "/" + args.workload + ".trace.json";
    std::ofstream(trace_path, std::ios::binary) << json;
    ++tally.attempted;
    Result<TraceValidation> valid = ValidateChromeTrace(json);
    if (!valid.ok()) {
      tally.Fail(1, "Chrome trace rejected: " + valid.status().message());
    } else {
      out.report += StrFormat("trace: %s (%zu events, max depth %d)\n", trace_path.c_str(),
                              valid->events, valid->max_depth);
    }
  }
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.problems = std::move(tally.problems);
  return out;
}

}  // namespace hostbench
