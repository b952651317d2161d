#include "src/fleet/device.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/strings.h"
#include "src/ota/image.h"

namespace amulet {
namespace fleet_internal {

namespace {
constexpr double kMsPerWeek = 7 * 24 * 3600 * 1000.0;
}  // namespace

uint32_t Mix32(uint32_t x) {
  x ^= x >> 16;
  x *= 0x85EBCA6Bu;
  x ^= x >> 13;
  x *= 0xC2B2AE35u;
  x ^= x >> 16;
  return x;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint32_t DeviceSeed(uint32_t fleet_seed, int device_id) {
  const uint64_t mixed = SplitMix64(
      (static_cast<uint64_t>(fleet_seed) << 32) | static_cast<uint32_t>(device_id));
  return static_cast<uint32_t>(mixed ^ (mixed >> 32));
}

ActivityMode ModeFor(uint32_t device_seed) {
  switch (Mix32(device_seed) % 3) {
    case 0:
      return ActivityMode::kRest;
    case 1:
      return ActivityMode::kWalking;
    default:
      return ActivityMode::kRunning;
  }
}

Result<const AppSpec*> FindSuiteApp(const std::string& name) {
  for (const AppSpec& app : AmuletAppSuite()) {
    if (app.name == name) {
      return &app;
    }
  }
  if (name == SyntheticApp().name) {
    return &SyntheticApp();
  }
  if (name == ActivityApp().name) {
    return &ActivityApp();
  }
  if (name == QuicksortApp().name) {
    return &QuicksortApp();
  }
  if (name == CrasherApp().name) {
    return &CrasherApp();
  }
  return NotFoundError(StrFormat("unknown fleet app '%s'", name.c_str()));
}

Result<std::vector<AppSource>> ResolveApps(std::vector<std::string>* names) {
  if (names->empty()) {
    for (const AppSpec& app : AmuletAppSuite()) {
      names->push_back(app.name);
    }
  }
  std::vector<AppSource> sources;
  for (const std::string& name : *names) {
    ASSIGN_OR_RETURN(const AppSpec* spec, FindSuiteApp(name));
    sources.push_back({spec->name, spec->source});
  }
  return sources;
}

DataRegions DataRegions::For(const Firmware& firmware) {
  DataRegions regions;
  for (const AppImage& app : firmware.apps) {
    for (uint32_t addr = app.data_lo; addr < app.data_hi; ++addr) {
      regions.addresses.set(addr);
    }
  }
  return regions;
}

Result<std::unique_ptr<CohortRuntime>> BootCohort(const Cohort& cohort,
                                                  const FleetConfig& config) {
  auto runtime = std::make_unique<CohortRuntime>();
  runtime->cohort = cohort;
  ASSIGN_OR_RETURN(std::vector<AppSource> sources, ResolveApps(&runtime->cohort.apps));
  AftOptions aft;
  aft.model = cohort.model;
  aft.optimize_checks = config.check_opt;
  ASSIGN_OR_RETURN(runtime->firmware, BuildFirmware(sources, aft));
  runtime->regions = DataRegions::For(runtime->firmware);

  runtime->machine = std::make_unique<Machine>();
  runtime->machine->cpu().set_predecode(config.predecode);
  OsOptions template_options;
  template_options.fram_wait_states = config.fram_wait_states;
  template_options.fault_policy = FaultPolicy::kRestartApp;
  template_options.sensor_seed = config.fleet_seed;
  runtime->os =
      std::make_unique<AmuletOs>(runtime->machine.get(), runtime->firmware, template_options);
  RETURN_IF_ERROR(runtime->os->Boot());
  runtime->snapshot = CaptureSnapshot(*runtime->machine);
  runtime->firmware_hash = FirmwareImageHash(runtime->firmware.image);
  return runtime;
}

ClonedDevice::ClonedDevice(const Firmware& firmware, int fram_wait_states, bool predecode,
                           bool flight_recorder)
    : os_(&machine_, firmware, [&] {
        OsOptions options;
        options.fram_wait_states = fram_wait_states;
        options.fault_policy = FaultPolicy::kRestartApp;
        return options;
      }()) {
  machine_.cpu().set_predecode(predecode);
  if (flight_recorder) {
    os_.AttachFlightRecorder(&flight_);
  }
}

Result<std::unique_ptr<ClonedDevice>> ClonedDevice::Clone(uint32_t device_seed,
                                                          int fram_wait_states,
                                                          const Firmware& firmware,
                                                          const MachineSnapshot& snapshot,
                                                          const AmuletOs& booted,
                                                          bool predecode,
                                                          bool flight_recorder) {
  std::unique_ptr<ClonedDevice> device(
      new ClonedDevice(firmware, fram_wait_states, predecode, flight_recorder));
  RETURN_IF_ERROR(device->Reset(device_seed, snapshot, booted));
  return device;
}

Status ClonedDevice::Reset(uint32_t device_seed, const MachineSnapshot& snapshot,
                           const AmuletOs& booted) {
  RETURN_IF_ERROR(os_.BootFromSnapshot(snapshot, booted));
  flight_.Clear();
  // The restore carries the template's sensor/RNG state; apply this device's
  // identity before any event is delivered.
  os_.sensors().Reseed(device_seed);
  os_.sensors().set_mode(ModeFor(device_seed));
  return OkStatus();
}

ResidentDevices::ResidentDevices(int workers, int cohorts)
    : cohorts_(cohorts), slots_(static_cast<size_t>(workers * cohorts)) {}

Result<ClonedDevice*> ResidentDevices::Acquire(int worker, int cohort, uint32_t device_seed,
                                               const CohortRuntime& runtime,
                                               const FleetConfig& config) {
  std::unique_ptr<ClonedDevice>& slot = slots_[static_cast<size_t>(worker * cohorts_ + cohort)];
  if (slot == nullptr) {
    ASSIGN_OR_RETURN(slot, ClonedDevice::Clone(device_seed, config.fram_wait_states,
                                               runtime.firmware, runtime.snapshot, *runtime.os,
                                               config.predecode, config.flight_recorder));
    return slot.get();
  }
  const Status status = slot->Reset(device_seed, runtime.snapshot, *runtime.os);
  if (!status.ok()) {
    slot.reset();
    return status;
  }
  return slot.get();
}

Status ClonedDevice::Run(uint64_t sim_ms, const DataRegions& regions, DeviceStats* out,
                         FaultLedger* ledger) {
  const size_t faults_watermark = os_.faults().size();
  machine_.bus().CountDataAccesses(&regions.addresses);

  // Deltas relative to the call point, so neither the template's boot cost
  // nor a previous phase of the same device leaks into this span's numbers.
  const uint64_t data_accesses_before = machine_.bus().data_accesses();
  const uint64_t cycles_before = machine_.cpu().cycle_count();
  const uint64_t instructions_before = machine_.cpu().instruction_count();
  const uint64_t syscalls_before = machine_.hostio().syscall_count();
  const uint64_t pucs_before = machine_.puc_count();
  const uint64_t wdt_before = machine_.watchdog().expiries();
  uint64_t dispatches_before = 0;
  uint64_t faults_before = 0;
  uint64_t restarts_before = 0;
  for (int i = 0; i < os_.app_count(); ++i) {
    dispatches_before += os_.stats(i).dispatches;
    faults_before += os_.stats(i).faults;
    restarts_before += os_.stats(i).restarts;
  }
  const Status run_status = os_.RunFor(sim_ms);
  machine_.bus().CountDataAccesses(nullptr);
  RETURN_IF_ERROR(run_status);

  out->cycles += machine_.cpu().cycle_count() - cycles_before;
  out->instructions += machine_.cpu().instruction_count() - instructions_before;
  out->data_accesses += machine_.bus().data_accesses() - data_accesses_before;
  out->syscalls += machine_.hostio().syscall_count() - syscalls_before;
  out->pucs += machine_.puc_count() - pucs_before;
  uint64_t dispatches_after = 0;
  uint64_t faults_after = 0;
  uint64_t restarts_after = 0;
  for (int i = 0; i < os_.app_count(); ++i) {
    dispatches_after += os_.stats(i).dispatches;
    faults_after += os_.stats(i).faults;
    restarts_after += os_.stats(i).restarts;
  }
  out->dispatches += dispatches_after - dispatches_before;
  out->faults += faults_after - faults_before;
  // A fault-forced app restart is a watchdog-style reset on real hardware
  // (the MPU NMI path ends in a restart, cf. the paper's fault recovery), so
  // both genuine WDT expiries and forced restarts count here.
  out->watchdog_resets += (machine_.watchdog().expiries() - wdt_before) +
                          (restarts_after - restarts_before);
  if (ledger != nullptr) {
    for (size_t i = faults_watermark; i < os_.faults().size(); ++i) {
      const FaultRecord& record = os_.faults()[i];
      std::string app_name;
      if (record.app_index >= 0 &&
          record.app_index < static_cast<int>(os_.firmware().apps.size())) {
        app_name = os_.firmware().apps[record.app_index].name;
      }
      ledger->Record(record, out->device_id, app_name);
    }
  }
  return OkStatus();
}

double BatteryPercentFor(uint64_t cycles, uint64_t sim_ms, const EnergyModel& energy) {
  if (sim_ms == 0) {
    return 0;
  }
  const double cycles_per_week =
      static_cast<double>(cycles) * (kMsPerWeek / static_cast<double>(sim_ms));
  return energy.BatteryImpactPercent(cycles_per_week);
}

uint64_t BatteryMicroPercent(double percent) {
  if (percent <= 0) {
    return 0;
  }
  return static_cast<uint64_t>(std::llround(percent * 1e6));
}

void RecordDeviceMetrics(const DeviceStats& stats, MetricRegistry* m) {
  m->Add("fleet.devices", 1);
  m->Add("fleet.cycles", stats.cycles);
  m->Add("fleet.data_accesses", stats.data_accesses);
  m->Add("fleet.syscalls", stats.syscalls);
  m->Add("fleet.dispatches", stats.dispatches);
  m->Add("fleet.faults", stats.faults);
  m->Add("fleet.pucs", stats.pucs);
  m->Add("fleet.watchdog_resets", stats.watchdog_resets);
  m->Add("fleet.instructions", stats.instructions);
  m->Observe("device.cycles", stats.cycles);
  m->Observe("device.data_accesses", stats.data_accesses);
  m->Observe("device.syscalls", stats.syscalls);
  m->Observe("device.dispatches", stats.dispatches);
  m->Observe("device.faults", stats.faults);
  m->Observe("device.pucs", stats.pucs);
  m->Observe("device.watchdog_resets", stats.watchdog_resets);
  m->Observe("device.instructions", stats.instructions);
  m->Observe("device.battery_upct", BatteryMicroPercent(stats.battery_impact_percent));
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

DeviceRunner::DeviceRunner(const FleetConfig& config, std::string name,
                           MetricRegistry* metrics, FaultLedger* faults,
                           CheckpointBuilder build_checkpoint, const FleetCheckpoint* resume)
    : config_(config),
      name_(std::move(name)),
      metrics_(metrics),
      faults_(faults),
      build_checkpoint_(std::move(build_checkpoint)),
      executor_(config.jobs),
      completed_(static_cast<size_t>(config.device_count), false),
      last_checkpoint_(std::chrono::steady_clock::now()) {
  if (resume != nullptr) {
    completed_ = resume->completed;
    *metrics_ = resume->metrics;
    *faults_ = resume->faults;
  }
}

void DeviceRunner::Run(const std::vector<int>& ids, const Body& body) {
  run_size_ = ids.size();
  run_done_ = 0;
  run_t0_ = last_progress_ = std::chrono::steady_clock::now();
  executor_.ParallelFor(ids.size(), [&](size_t k, int worker) {
    const int id = ids[k];
    MetricRegistry device_metrics;
    FaultLedger device_ledger;
    const Status status =
        config_.fail_device_id == id
            ? InternalError(StrFormat("injected failure on device %d", id))
            : body(id, worker, &device_metrics, &device_ledger);
    std::lock_guard<std::mutex> lock(merge_mu_);
    MergeLocked(id, status, device_metrics, device_ledger);
  });
}

void DeviceRunner::MergeLocked(int id, const Status& status, const MetricRegistry& metrics,
                               const FaultLedger& ledger) {
  ++run_done_;
  if (!status.ok()) {
    if (failed_id_ < 0 || id < failed_id_) {
      failed_id_ = id;
      failed_status_ = status;
    }
    executor_.Cancel();
    return;
  }
  metrics_->Merge(metrics);
  faults_->Merge(ledger);
  completed_[static_cast<size_t>(id)] = true;
  ++completed_this_run_;
  if (config_.abort_after_devices > 0 && completed_this_run_ >= config_.abort_after_devices &&
      !aborted_) {
    aborted_ = true;
    executor_.Cancel();
  }
  if (!config_.checkpoint_path.empty() && checkpoint_status_.ok() &&
      (devices_since_checkpoint_ + 1 >= std::max(1, config_.checkpoint_every_devices) ||
       SecondsSince(last_checkpoint_) >= config_.checkpoint_every_seconds)) {
    WriteCheckpointLocked();
    devices_since_checkpoint_ = 0;
    last_checkpoint_ = std::chrono::steady_clock::now();
    if (!checkpoint_status_.ok()) {
      executor_.Cancel();
    }
  } else {
    ++devices_since_checkpoint_;
  }
  const size_t progress_step = std::max<size_t>(1, run_size_ / 20);
  if (config_.verbosity >= 1 && (run_done_ == run_size_ || run_done_ % progress_step == 0 ||
                                 SecondsSince(last_progress_) >= 2.0)) {
    last_progress_ = std::chrono::steady_clock::now();
    const double elapsed = SecondsSince(run_t0_);
    const double rate = elapsed > 0 ? static_cast<double>(run_done_) / elapsed : 0.0;
    const double eta = rate > 0 ? static_cast<double>(run_size_ - run_done_) / rate : 0.0;
    std::fprintf(stderr, "%s: %zu/%zu devices (%.1f devices/s, ETA %.1f s)\n", name_.c_str(),
                 run_done_, run_size_, rate, eta);
  }
}

void DeviceRunner::WriteCheckpointLocked() {
  FleetCheckpoint cp = build_checkpoint_(completed_);
  cp.metrics = *metrics_;
  cp.faults = *faults_;
  cp.completed = completed_;
  cp.device_count = config_.device_count;
  checkpoint_status_ = WriteFleetCheckpoint(config_.checkpoint_path, cp);
}

Status DeviceRunner::Finish() {
  std::lock_guard<std::mutex> lock(merge_mu_);
  if (!config_.checkpoint_path.empty() && checkpoint_status_.ok()) {
    WriteCheckpointLocked();
  }
  if (failed_id_ >= 0) {
    return Status(failed_status_.code(), StrFormat("device %d: %s", failed_id_,
                                                   failed_status_.message().c_str()));
  }
  RETURN_IF_ERROR(checkpoint_status_);
  if (aborted_) {
    return CancelledError(
        StrFormat("%s cancelled after %d completed device(s) this run "
                  "(abort_after_devices=%d)",
                  name_.c_str(), completed_this_run_, config_.abort_after_devices));
  }
  return OkStatus();
}

}  // namespace fleet_internal
}  // namespace amulet
