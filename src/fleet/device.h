// Internal helpers shared by the fleet engine (fleet.cc) and the OTA
// campaign driver (campaign.cc): per-device seeding, app-name resolution,
// data-region bookkeeping, the template boot, the clone-and-run body that
// turns a template snapshot into one simulated device's counter deltas, and
// the one device-run driver both use to fan devices out, merge their results
// and checkpoint. Not part of the public fleet API.
#ifndef SRC_FLEET_DEVICE_H_
#define SRC_FLEET_DEVICE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/aft/aft.h"
#include "src/apps/app_sources.h"
#include "src/common/status.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/executor.h"
#include "src/fleet/fault_ledger.h"
#include "src/fleet/fleet.h"
#include "src/fleet/profile.h"
#include "src/mcu/machine.h"
#include "src/os/os.h"
#include "src/scope/flight_recorder.h"

namespace amulet {
namespace fleet_internal {

// 32-bit avalanche (Murmur3 finalizer); decorrelates device ids that differ
// in one bit so activity modes spread evenly across the fleet.
uint32_t Mix32(uint32_t x);

// 64-bit avalanche (splitmix64 finalizer): every input bit flips every
// output bit with ~1/2 probability.
uint64_t SplitMix64(uint64_t x);

// Per-device seed: a splitmix64-style mix over (fleet_seed, global device
// id). This replaced the original `fleet_seed ^ device_id` derivation, whose
// adjacent-id streams were correlated (ids differing in one low bit produced
// seeds differing in one bit, and `seed ^ i == (seed ^ 1) ^ (i ^ 1)` meant
// distinct (seed, id) pairs could collide on the same stream). The mix is a
// pure function of the *global* device id, so a device's stream is identical
// no matter which shard simulates it — the property cross-host sharding
// (docs/fleet.md, "Sharding & merge") is built on. Changing this derivation
// deliberately broke all pre-v5 fleet digests.
uint32_t DeviceSeed(uint32_t fleet_seed, int device_id);

ActivityMode ModeFor(uint32_t device_seed);

// Looks a name up in the app suite (plus the benchmark apps).
Result<const AppSpec*> FindSuiteApp(const std::string& name);

// Expands an empty list to the full suite and resolves every name to its
// source. On success `names` holds the resolved list.
Result<std::vector<AppSource>> ResolveApps(std::vector<std::string>* names);

// App data regions, precomputed once per firmware: the address set the bus
// counts a device's data accesses into (Bus::CountDataAccesses).
struct DataRegions {
  AddressSet addresses;

  static DataRegions For(const Firmware& firmware);
};

// One booted template: the firmware build for a cohort's app mix and memory
// model, the template machine that paid the image load and every on_init
// dispatch once, and the snapshot every device of the cohort clones from. A
// homogeneous fleet is one implicit cohort; a campaign boots one template
// per firmware version.
struct CohortRuntime {
  Cohort cohort;  // apps resolved
  Firmware firmware;
  DataRegions regions;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<AmuletOs> os;
  MachineSnapshot snapshot;
  uint64_t firmware_hash = 0;  // FirmwareImageHash of the loadable bytes
};

// Resolves the cohort's apps, builds its firmware with config.check_opt,
// and boots and snapshots the template with config's wait states, seed and
// execution path.
Result<std::unique_ptr<CohortRuntime>> BootCohort(const Cohort& cohort,
                                                  const FleetConfig& config);

// One cloned simulated device: a Machine restored from the template
// snapshot with this device's sensor identity applied. The campaign driver
// runs a device once per firmware phase (pre-update workload, post-update
// health window) and can touch the machine (bl-data in InfoMem) between
// runs. Clone() is construction plus Reset(); the fleet keeps devices
// resident and Reset()s them for every further device (ResidentDevices).
class ClonedDevice {
 public:
  // `predecode` selects the CPU execution path (fast cache vs reference
  // interpreter); counters and digests are bit-identical either way.
  // `flight_recorder` attaches the device's flight recorder so fault records
  // carry a flight tail — host-side observability, also digest-neutral
  // (every recorded field derives from simulated state).
  static Result<std::unique_ptr<ClonedDevice>> Clone(uint32_t device_seed,
                                                     int fram_wait_states,
                                                     const Firmware& firmware,
                                                     const MachineSnapshot& snapshot,
                                                     const AmuletOs& booted,
                                                     bool predecode = true,
                                                     bool flight_recorder = true);

  // Rewinds the device to `snapshot` through BootFromSnapshot (so `booted`
  // must be the template this device was cloned from), empties the flight
  // recorder, reseeds the sensors with `device_seed` and sets its activity
  // mode. The device then runs exactly like a fresh Clone() with that seed;
  // only its predecode cache, kept for the code that did not change, is
  // warmer. On error the machine may be partly overwritten: discard the
  // device.
  Status Reset(uint32_t device_seed, const MachineSnapshot& snapshot, const AmuletOs& booted);

  Machine& machine() { return machine_; }
  AmuletOs& os() { return os_; }

  // Runs sim_ms of device time and ADDS the resulting deltas (cycles, data
  // accesses, syscalls, dispatches, faults, PUCs, watchdog resets) into
  // *out, so multi-phase callers accumulate one row. Does not touch
  // out->battery_impact_percent (span-dependent; see BatteryPercentFor).
  // When `ledger` is non-null, every fault the span produced is folded into
  // it under out->device_id (the caller owns one ledger per device and
  // merges it into the fleet ledger exactly once, keeping the bucket
  // `devices` counters equal to distinct-device counts).
  Status Run(uint64_t sim_ms, const DataRegions& regions, DeviceStats* out,
             FaultLedger* ledger = nullptr);

 private:
  ClonedDevice(const Firmware& firmware, int fram_wait_states, bool predecode,
               bool flight_recorder);

  Machine machine_;
  AmuletOs os_;
  FlightRecorder flight_;
};

// Worker-resident devices: one ClonedDevice per (worker, cohort) slot,
// cloned on the slot's first device and Reset() for every later one, so a
// fleet constructs (cohorts x workers) devices instead of one per device and
// each keeps its predecode cache warm across resets. A worker uses only its
// own slots (Executor worker indices are distinct within a ParallelFor
// call), so no slot is shared between threads.
class ResidentDevices {
 public:
  ResidentDevices(int workers, int cohorts);

  // The slot's device, rewound to `runtime`'s template snapshot with
  // `device_seed`'s identity under config's wait states, execution path and
  // flight recorder. A failed reset empties the slot, so a partly restored
  // machine never runs again: the slot's next device is cloned afresh.
  Result<ClonedDevice*> Acquire(int worker, int cohort, uint32_t device_seed,
                                const CohortRuntime& runtime, const FleetConfig& config);

  // The slot's resident device, or null when it holds none.
  const ClonedDevice* resident(int worker, int cohort) const {
    return slots_[static_cast<size_t>(worker * cohorts_ + cohort)].get();
  }

 private:
  int cohorts_;
  std::vector<std::unique_ptr<ClonedDevice>> slots_;
};

// Weekly battery cost of `cycles` measured over a `sim_ms` span.
double BatteryPercentFor(uint64_t cycles, uint64_t sim_ms, const EnergyModel& energy);

// Battery impact as integer micro-percent so the metric state (and thus the
// fleet digest) stays bit-identical regardless of merge order.
uint64_t BatteryMicroPercent(double percent);

// One device's contribution to the streaming registry. The registry a device
// produces is merged into the fleet-wide one and discarded, so aggregation
// memory never grows with device_count.
void RecordDeviceMetrics(const DeviceStats& stats, MetricRegistry* m);

double SecondsSince(std::chrono::steady_clock::time_point t0);

// The one device-run driver behind RunFleet and RunCampaign. It fans device
// ids out on an Executor of config.jobs threads and owns everything that
// happens around one device's body:
//   - the merge: under one mutex, each successful device's metrics and fault
//     ledger are merged into the run's registry/ledger and its bit is set in
//     the completed bitmap. The registry's integer state makes the result
//     independent of merge order;
//   - the checkpoint cadence: every config.checkpoint_every_devices devices
//     or config.checkpoint_every_seconds seconds, plus a final checkpoint in
//     Finish() on every exit path, so no completed device is ever lost;
//   - fail-fast: a device error, a checkpoint write error, or reaching
//     config.abort_after_devices cancels the devices not yet started;
//     config.fail_device_id injects an InternalError in place of that
//     device's body;
//   - progress/ETA lines on stderr at config.verbosity >= 1.
class DeviceRunner {
 public:
  // Simulates device `id` on executor worker `worker` (in [0,
  // thread_count()); it keys the caller's ResidentDevices), writing its row
  // into the caller's slot for that id, and on success records its
  // contribution into *metrics and its faults into *ledger (both fresh per
  // device).
  using Body =
      std::function<Status(int id, int worker, MetricRegistry* metrics, FaultLedger* ledger)>;
  // The caller's part of a checkpoint (kind, identity, template snapshot,
  // completed rows); the driver adds the merged metrics and ledger, the
  // completed bitmap and the device count. Called with the merge mutex held.
  using CheckpointBuilder = std::function<FleetCheckpoint(const std::vector<bool>& completed)>;

  // `name` labels progress lines and the abort_after_devices cancel message
  // ("fleet run", "campaign"). A non-null `resume` restores its completed
  // bitmap, metrics and ledger; the caller restores its own rows.
  DeviceRunner(const FleetConfig& config, std::string name, MetricRegistry* metrics,
               FaultLedger* faults, CheckpointBuilder build_checkpoint,
               const FleetCheckpoint* resume);

  int thread_count() const { return executor_.thread_count(); }
  // Indexed by global device id. Read it between Run() calls only.
  const std::vector<bool>& completed() const { return completed_; }
  // True once a device error, checkpoint error or the abort hook stopped the run.
  bool cancelled() const { return executor_.cancelled(); }

  // Runs `ids` (none already completed) through the body. May be called
  // repeatedly (the campaign runs one call per stage); a cancelled runner
  // runs nothing more.
  void Run(const std::vector<int>& ids, const Body& body);

  // Writes the final checkpoint, then reports the run's outcome: the lowest
  // failing device id's error, else the checkpoint error, else kCancelled
  // if the abort hook fired, else OK.
  Status Finish();

 private:
  // Merges one finished device; merge_mu_ must be held.
  void MergeLocked(int id, const Status& status, const MetricRegistry& metrics,
                   const FaultLedger& ledger);
  void WriteCheckpointLocked();

  const FleetConfig& config_;
  const std::string name_;
  MetricRegistry* metrics_;
  FaultLedger* faults_;
  CheckpointBuilder build_checkpoint_;
  Executor executor_;

  std::mutex merge_mu_;
  // Everything below is guarded by merge_mu_.
  std::vector<bool> completed_;
  int failed_id_ = -1;  // lowest failing device id
  Status failed_status_;
  Status checkpoint_status_;
  int devices_since_checkpoint_ = 0;
  std::chrono::steady_clock::time_point last_checkpoint_;
  int completed_this_run_ = 0;
  bool aborted_ = false;
  // Progress over the current Run() call.
  size_t run_size_ = 0;
  size_t run_done_ = 0;
  std::chrono::steady_clock::time_point run_t0_;
  std::chrono::steady_clock::time_point last_progress_;
};

}  // namespace fleet_internal
}  // namespace amulet

#endif  // SRC_FLEET_DEVICE_H_
