// Fleet subsystem tests: machine snapshot round-trips, snapshot-based OS
// cloning vs a fresh boot, executor correctness, and thread-count-independent
// fleet determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/aft/aft.h"
#include "src/apps/app_sources.h"
#include "src/common/strings.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/device.h"
#include "src/fleet/executor.h"
#include "src/fleet/fleet.h"
#include "src/fleet/profile.h"
#include "src/mcu/machine.h"
#include "src/mcu/snapshot.h"
#include "src/os/os.h"
#include "src/ota/bootloader.h"

namespace amulet {
namespace {

constexpr char kTickerApp[] = R"(
int ticks;
void on_init(void) {
  ticks = 0;
  amulet_timer_start(0, 100);
  amulet_accel_subscribe(10);
}
void on_timer(int timer_id) {
  ticks = ticks + 1;
  amulet_display_digits(0, ticks);
}
void on_accel(int x, int y, int z) {
  amulet_log_value(1, x + y + z);
}
)";

Firmware MustBuild(MemoryModel model) {
  AftOptions options;
  options.model = model;
  auto fw = BuildFirmware({{"ticker", kTickerApp}}, options);
  EXPECT_TRUE(fw.ok()) << fw.status().ToString();
  return std::move(*fw);
}

TEST(SnapshotTest, RoundTripPreservesMachineState) {
  Firmware fw = MustBuild(MemoryModel::kMpu);
  Machine machine;
  AmuletOs os(&machine, fw, OsOptions{});
  ASSERT_TRUE(os.Boot().ok());

  MachineSnapshot snapshot = CaptureSnapshot(machine);
  EXPECT_GT(snapshot.bytes.size(), 0x10000u);  // at least the memory image

  Machine restored;
  ASSERT_TRUE(RestoreSnapshot(snapshot, &restored).ok());
  EXPECT_EQ(restored.cpu().cycle_count(), machine.cpu().cycle_count());
  EXPECT_EQ(restored.cpu().instruction_count(), machine.cpu().instruction_count());
  EXPECT_EQ(restored.cpu().pc(), machine.cpu().pc());
  EXPECT_EQ(restored.timer().now_cycles(), machine.timer().now_cycles());
  EXPECT_EQ(restored.hostio().syscall_count(), machine.hostio().syscall_count());
  EXPECT_EQ(restored.puc_count(), machine.puc_count());
  for (uint32_t addr = 0; addr < 0x10000; ++addr) {
    if (restored.bus().PeekByte(static_cast<uint16_t>(addr)) !=
        machine.bus().PeekByte(static_cast<uint16_t>(addr))) {
      FAIL() << "memory differs at address " << addr;
    }
  }

  // Capturing the restored machine reproduces the snapshot bit-for-bit.
  MachineSnapshot again = CaptureSnapshot(restored);
  EXPECT_EQ(again.bytes, snapshot.bytes);
}

TEST(SnapshotTest, RejectsCorruptInput) {
  Machine machine;
  MachineSnapshot snapshot = CaptureSnapshot(machine);

  MachineSnapshot bad_magic = snapshot;
  bad_magic.bytes[0] ^= 0xFF;
  Machine victim;
  EXPECT_FALSE(RestoreSnapshot(bad_magic, &victim).ok());

  MachineSnapshot bad_version = snapshot;
  bad_version.bytes[4] = 0x7F;
  EXPECT_FALSE(RestoreSnapshot(bad_version, &victim).ok());

  MachineSnapshot truncated = snapshot;
  truncated.bytes.resize(truncated.bytes.size() / 2);
  EXPECT_FALSE(RestoreSnapshot(truncated, &victim).ok());

  MachineSnapshot trailing = snapshot;
  trailing.bytes.push_back(0);
  EXPECT_FALSE(RestoreSnapshot(trailing, &victim).ok());

  MachineSnapshot empty;
  EXPECT_FALSE(RestoreSnapshot(empty, &victim).ok());
}

// A device cloned from a boot snapshot must behave exactly like the device
// the snapshot was taken from: same dispatch outcomes, same cycle counts.
TEST(SnapshotTest, CloneMatchesFreshBoot) {
  Firmware fw = MustBuild(MemoryModel::kMpu);
  OsOptions options;
  options.sensor_seed = 77;

  Machine fresh_machine;
  AmuletOs fresh(&fresh_machine, fw, options);
  ASSERT_TRUE(fresh.Boot().ok());
  MachineSnapshot snapshot = CaptureSnapshot(fresh_machine);

  Machine cloned_machine;
  AmuletOs cloned(&cloned_machine, fw, options);
  ASSERT_TRUE(cloned.BootFromSnapshot(snapshot, fresh).ok());
  EXPECT_EQ(cloned_machine.cpu().cycle_count(), fresh_machine.cpu().cycle_count());

  // Drive both through the same simulated timeline.
  ASSERT_TRUE(fresh.RunFor(3000).ok());
  ASSERT_TRUE(cloned.RunFor(3000).ok());
  EXPECT_EQ(cloned_machine.cpu().cycle_count(), fresh_machine.cpu().cycle_count());
  EXPECT_EQ(cloned_machine.hostio().syscall_count(), fresh_machine.hostio().syscall_count());
  EXPECT_EQ(cloned.stats(0).dispatches, fresh.stats(0).dispatches);
  EXPECT_EQ(cloned.stats(0).cycles, fresh.stats(0).cycles);
  EXPECT_EQ(cloned.stats(0).syscalls, fresh.stats(0).syscalls);
  EXPECT_EQ(cloned.stats(0).faults, fresh.stats(0).faults);
  EXPECT_EQ(cloned.display(0), fresh.display(0));
  EXPECT_EQ(cloned.log().size(), fresh.log().size());
}

TEST(SnapshotTest, BootFromSnapshotEmptiesRecentPcs) {
  Firmware fw = MustBuild(MemoryModel::kMpu);
  Machine machine;
  AmuletOs booted(&machine, fw, OsOptions{});
  ASSERT_TRUE(booted.Boot().ok());
  ASSERT_FALSE(machine.cpu().recent_pcs().empty()) << "on_init ran on this CPU";
  const MachineSnapshot snapshot = CaptureSnapshot(machine);

  // A clone booted onto the same machine starts with no pre-clone history.
  AmuletOs clone(&machine, fw, OsOptions{});
  ASSERT_TRUE(clone.BootFromSnapshot(snapshot, booted).ok());
  EXPECT_TRUE(machine.cpu().recent_pcs().empty());
}

TEST(SnapshotTest, BootFromSnapshotRequiresBootedTemplate) {
  Firmware fw = MustBuild(MemoryModel::kMpu);
  Machine m1;
  AmuletOs not_booted(&m1, fw, OsOptions{});
  MachineSnapshot snapshot = CaptureSnapshot(m1);
  Machine m2;
  AmuletOs clone(&m2, fw, OsOptions{});
  EXPECT_FALSE(clone.BootFromSnapshot(snapshot, not_booted).ok());
}

TEST(ExecutorTest, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 2, 8}) {
    Executor executor(threads);
    EXPECT_EQ(executor.thread_count(), threads);
    // Empty, fewer indices than threads, and many more; the executor is
    // reusable across calls.
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{513}}) {
      std::vector<std::atomic<int>> hits(n);
      executor.ParallelFor(n, [&hits](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads " << threads << ", n " << n << ", index " << i;
      }
    }
  }
}

TEST(ExecutorTest, CancelFromBodyStopsFurtherIndices) {
  // Serial: indices run in order, and nothing runs after the cancelling one.
  {
    Executor executor(1);
    std::vector<size_t> ran;
    executor.ParallelFor(100, [&](size_t i) {
      ran.push_back(i);
      if (i == 10) {
        executor.Cancel();
      }
    });
    EXPECT_TRUE(executor.cancelled());
    ASSERT_EQ(ran.size(), 11u);
    EXPECT_EQ(ran.back(), 10u);
  }
  // Threaded: bodies already running finish, but the rest of the range is
  // never claimed, and the cancel is sticky for later calls.
  {
    Executor executor(4);
    std::atomic<int> ran{0};
    executor.ParallelFor(2000, [&](size_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 3) {
        executor.Cancel();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
    EXPECT_TRUE(executor.cancelled());
    EXPECT_GE(ran.load(), 4);
    EXPECT_LT(ran.load(), 2000);
    const int before = ran.load();
    executor.ParallelFor(10, [&](size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(ran.load(), before);
  }
}

TEST(ExecutorTest, SingleThreadRunsOnCallingThread) {
  Executor executor(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(16);
  executor.ParallelFor(ids.size(), [&ids](size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ids) {
    EXPECT_EQ(id, caller);
  }
}

TEST(ExecutorTest, EveryThreadGetsOneDistinctWorkerIndex) {
  for (int threads : {1, 2, 4, 8}) {
    Executor executor(threads);
    // Two calls on one executor: the indices are handed out afresh per call.
    for (int call = 0; call < 2; ++call) {
      std::mutex mu;
      std::map<std::thread::id, std::set<int>> workers_of_thread;
      std::map<int, std::set<std::thread::id>> threads_of_worker;
      std::vector<std::atomic<int>> hits(400);
      executor.ParallelFor(hits.size(), [&](size_t i, int worker) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        std::lock_guard<std::mutex> lock(mu);
        workers_of_thread[std::this_thread::get_id()].insert(worker);
        threads_of_worker[worker].insert(std::this_thread::get_id());
      });
      for (const std::atomic<int>& h : hits) {
        EXPECT_EQ(h.load(), 1);
      }
      for (const auto& [thread, workers] : workers_of_thread) {
        EXPECT_EQ(workers.size(), 1u) << "threads " << threads << ": a thread changed index";
      }
      for (const auto& [worker, ids] : threads_of_worker) {
        EXPECT_GE(worker, 0);
        EXPECT_LT(worker, executor.thread_count());
        EXPECT_EQ(ids.size(), 1u) << "threads " << threads << ": worker " << worker
                                  << " ran on two threads";
      }
      // The calling thread takes part as worker 0.
      ASSERT_EQ(workers_of_thread.count(std::this_thread::get_id()), 1u);
      EXPECT_EQ(*workers_of_thread[std::this_thread::get_id()].begin(), 0);
    }
  }
}

TEST(ExecutorTest, NonPositiveThreadsSelectDefaultThreadCount) {
  EXPECT_GE(Executor::DefaultThreadCount(), 1);
  EXPECT_EQ(Executor().thread_count(), Executor::DefaultThreadCount());
  EXPECT_EQ(Executor(0).thread_count(), Executor::DefaultThreadCount());
  EXPECT_EQ(Executor(-3).thread_count(), Executor::DefaultThreadCount());
}

FleetConfig SmallFleet(int jobs) {
  FleetConfig config;
  config.device_count = 8;
  config.apps = {"pedometer", "clock"};
  config.model = MemoryModel::kMpu;
  config.fleet_seed = 0xF1EE7;
  config.sim_ms = 500;
  config.jobs = jobs;
  return config;
}

TEST(FleetTest, DeterministicAcrossThreadCounts) {
  auto serial = RunFleet(SmallFleet(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(serial->devices.size(), 8u);
  EXPECT_GT(serial->aggregate.total_cycles, 0u);
  EXPECT_EQ(serial->aggregate.total_data_accesses, 12012u);  // pinned
  EXPECT_GT(serial->aggregate.total_dispatches, 0u);

  const std::string serial_digest = FleetDigest(*serial);
  for (int jobs : {4, 8}) {
    auto parallel = RunFleet(SmallFleet(jobs));
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(FleetDigest(*parallel), serial_digest) << "jobs=" << jobs;
  }
}

TEST(FleetTest, SeedChangesResults) {
  FleetConfig config = SmallFleet(2);
  auto a = RunFleet(config);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  config.fleet_seed ^= 1;
  auto b = RunFleet(config);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_NE(FleetDigest(*a), FleetDigest(*b));
}

TEST(FleetTest, DevicesDifferWithinAFleet) {
  auto report = RunFleet(SmallFleet(2));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Per-device seeds give devices distinct sensor streams; at least two of
  // the eight devices should disagree on measured cycles.
  bool any_difference = false;
  for (const DeviceStats& d : report->devices) {
    if (d.cycles != report->devices[0].cycles) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(FleetTest, MetricsBitIdenticalAcrossThreadCounts) {
  auto serial = RunFleet(SmallFleet(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_FALSE(serial->metrics.empty());
  EXPECT_EQ(serial->metrics.counter("fleet.devices"), 8u);
  const std::string serial_json = serial->metrics.ToJson();
  for (int jobs : {4, 8}) {
    auto parallel = RunFleet(SmallFleet(jobs));
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->metrics.ToJson(), serial_json) << "jobs=" << jobs;
  }
}

TEST(FleetTest, StreamingModeDropsDeviceRowsButKeepsTotals) {
  FleetConfig retained_config = SmallFleet(2);
  auto retained = RunFleet(retained_config);
  ASSERT_TRUE(retained.ok()) << retained.status().ToString();

  FleetConfig streaming_config = SmallFleet(2);
  streaming_config.retain_device_stats = false;
  auto streaming = RunFleet(streaming_config);
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();

  EXPECT_TRUE(streaming->devices.empty());
  EXPECT_EQ(streaming->metrics.ToJson(), retained->metrics.ToJson());
  // Totals and count/min/max/mean come from exact integer state either way;
  // only the streaming quantiles are bucket-midpoint approximations.
  EXPECT_EQ(streaming->aggregate.total_cycles, retained->aggregate.total_cycles);
  EXPECT_EQ(streaming->aggregate.total_data_accesses,
            retained->aggregate.total_data_accesses);
  EXPECT_GT(streaming->aggregate.total_data_accesses, 0u);
  EXPECT_EQ(streaming->aggregate.total_syscalls, retained->aggregate.total_syscalls);
  EXPECT_EQ(streaming->aggregate.total_dispatches, retained->aggregate.total_dispatches);
  EXPECT_EQ(streaming->aggregate.total_faults, retained->aggregate.total_faults);
  EXPECT_EQ(streaming->aggregate.total_pucs, retained->aggregate.total_pucs);
  EXPECT_EQ(streaming->aggregate.cycles.count, retained->aggregate.cycles.count);
  EXPECT_DOUBLE_EQ(streaming->aggregate.cycles.min, retained->aggregate.cycles.min);
  EXPECT_DOUBLE_EQ(streaming->aggregate.cycles.max, retained->aggregate.cycles.max);
  EXPECT_DOUBLE_EQ(streaming->aggregate.cycles.mean, retained->aggregate.cycles.mean);
}

// The streaming-aggregation memory contract at fleet scale: the merged
// registry for 10,000 devices is byte-for-byte the same size as for 100.
// (Simulating 10k devices is far too slow for a unit test; what the fleet
// merges per device is exactly one registry shaped like this one, so merging
// synthetic registries exercises the same code path and representation.)
TEST(FleetTest, MetricsMemoryIndependentOfDeviceCount) {
  auto device_registry = [](int device_id) {
    // Mirrors RecordDeviceMetrics in src/fleet/fleet.cc: same counter and
    // histogram names, device-dependent values.
    const uint64_t id = static_cast<uint64_t>(device_id);
    MetricRegistry m;
    m.Add("fleet.devices", 1);
    m.Add("fleet.cycles", 100'000 + id * 31);
    m.Add("fleet.data_accesses", 4'000 + id * 7);
    m.Add("fleet.syscalls", 120 + id % 13);
    m.Add("fleet.dispatches", 60 + id % 5);
    m.Add("fleet.faults", id % 3);
    m.Add("fleet.pucs", id % 2);
    m.Add("fleet.watchdog_resets", id % 4);
    m.Observe("device.cycles", 100'000 + id * 31);
    m.Observe("device.data_accesses", 4'000 + id * 7);
    m.Observe("device.syscalls", 120 + id % 13);
    m.Observe("device.dispatches", 60 + id % 5);
    m.Observe("device.faults", id % 3);
    m.Observe("device.pucs", id % 2);
    m.Observe("device.watchdog_resets", id % 4);
    m.Observe("device.battery_upct", 50'000 + id * 11);
    return m;
  };

  MetricRegistry small;
  for (int i = 0; i < 100; ++i) {
    small.Merge(device_registry(i));
  }
  const size_t bytes_at_100 = small.ApproxBytes();

  MetricRegistry large;
  for (int i = 0; i < 10'000; ++i) {
    large.Merge(device_registry(i));
  }
  EXPECT_EQ(large.ApproxBytes(), bytes_at_100);
  EXPECT_EQ(large.counter("fleet.devices"), 10'000u);
  ASSERT_NE(large.histogram("device.cycles"), nullptr);
  EXPECT_EQ(large.histogram("device.cycles")->count, 10'000u);
}

TEST(FleetTest, UnknownAppIsRejected) {
  FleetConfig config = SmallFleet(1);
  config.apps = {"no_such_app"};
  auto report = RunFleet(config);
  EXPECT_FALSE(report.ok());
}

TEST(FleetTest, RenderedReportMentionsConfiguration) {
  auto report = RunFleet(SmallFleet(2));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string text = RenderFleetReport(*report);
  EXPECT_NE(text.find("8 device(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("pedometer"), std::string::npos) << text;
  EXPECT_NE(text.find("battery impact"), std::string::npos) << text;
  EXPECT_NE(text.find("data accesses"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Fleet checkpoints

FleetCheckpoint SampleCheckpoint() {
  FleetCheckpoint cp;
  cp.config_hash = FleetConfigHash(SmallFleet(1), 0xF00DF00Dull);
  cp.config_text = FleetConfigCanonical(SmallFleet(1), 0xF00DF00Dull);
  Machine machine;
  cp.template_snapshot = CaptureSnapshot(machine);
  cp.metrics.Add("fleet.devices", 2);
  cp.metrics.Observe("device.cycles", 12345);
  cp.device_count = 4;
  cp.completed = {true, false, true, false};
  DeviceStats d0;
  d0.device_id = 0;
  d0.cycles = 111;
  d0.data_accesses = 7;
  d0.battery_impact_percent = 0.5;
  DeviceStats d2;
  d2.device_id = 2;
  d2.cycles = 222;
  d2.pucs = 3;
  cp.devices = {d0, d2};
  return cp;
}

TEST(CheckpointTest, EncodeDecodeRoundTrip) {
  const FleetCheckpoint cp = SampleCheckpoint();
  const std::vector<uint8_t> bytes = EncodeFleetCheckpoint(cp);
  auto decoded = DecodeFleetCheckpoint(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->config_hash, cp.config_hash);
  EXPECT_EQ(decoded->config_text, cp.config_text);
  EXPECT_EQ(decoded->template_snapshot.bytes, cp.template_snapshot.bytes);
  EXPECT_EQ(decoded->metrics.ToJson(), cp.metrics.ToJson());
  EXPECT_EQ(decoded->device_count, 4);
  EXPECT_EQ(decoded->completed, cp.completed);
  EXPECT_EQ(decoded->CompletedCount(), 2);
  ASSERT_EQ(decoded->devices.size(), 2u);
  EXPECT_EQ(decoded->devices[0].data_accesses, 7u);
  EXPECT_EQ(decoded->devices[1].cycles, 222u);
  EXPECT_DOUBLE_EQ(decoded->devices[0].battery_impact_percent, 0.5);
}

// Satellite of the resume work: feeding back damaged checkpoint bytes must
// fail with InvalidArgumentError in every case — never crash, never
// half-apply.
TEST(CheckpointTest, DecodeRejectsCorruptInput) {
  const std::vector<uint8_t> bytes = EncodeFleetCheckpoint(SampleCheckpoint());
  auto expect_invalid = [](std::vector<uint8_t> damaged, const char* what) {
    auto decoded = DecodeFleetCheckpoint(damaged);
    EXPECT_FALSE(decoded.ok()) << what;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << what;
  };

  std::vector<uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  expect_invalid(bad_magic, "bad magic");

  std::vector<uint8_t> bad_version = bytes;
  bad_version[4] = 0x7F;
  expect_invalid(bad_version, "unknown version");

  expect_invalid({}, "empty");

  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  expect_invalid(trailing, "trailing bytes");

  for (size_t len : {bytes.size() - 1, bytes.size() / 2, size_t{9}, size_t{1}}) {
    std::vector<uint8_t> truncated = bytes;
    truncated.resize(len);
    expect_invalid(truncated, "truncated");
  }

  // A stats row for a device the bitmap says never completed.
  FleetCheckpoint contradictory = SampleCheckpoint();
  contradictory.completed[0] = false;
  expect_invalid(EncodeFleetCheckpoint(contradictory), "row without completed bit");

  // A stats row naming a device id outside the fleet.
  FleetCheckpoint out_of_range = SampleCheckpoint();
  out_of_range.devices[1].device_id = 9;
  expect_invalid(EncodeFleetCheckpoint(out_of_range), "out-of-range device id");
}

TEST(CheckpointTest, WriteAndReadBack) {
  const std::string path = "fleet_ckpt_rw_test.bin";
  std::remove(path.c_str());
  const FleetCheckpoint cp = SampleCheckpoint();
  ASSERT_TRUE(WriteFleetCheckpoint(path, cp).ok());
  // The atomic write leaves no temp file behind.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) {
    std::fclose(tmp);
  }
  auto back = ReadFleetCheckpoint(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->config_hash, cp.config_hash);
  EXPECT_EQ(back->CompletedCount(), 2);

  EXPECT_EQ(ReadFleetCheckpoint("no_such_checkpoint.bin").status().code(),
            StatusCode::kNotFound);

  // On-disk corruption surfaces as InvalidArgument, not a crash.
  std::FILE* junk = std::fopen(path.c_str(), "wb");
  ASSERT_NE(junk, nullptr);
  std::fputs("not a checkpoint", junk);
  std::fclose(junk);
  EXPECT_EQ(ReadFleetCheckpoint(path).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fail-fast and resume

// A failing device must cancel the run instead of letting the rest of the
// fleet simulate first. The serial run is exactly reproducible: devices 0 and
// 1 complete, device 2 fails, devices 3..7 are never simulated — which the
// checkpoint's completed bitmap proves.
TEST(FleetTest, FailedDeviceCancelsRemainingDevices) {
  const std::string path = "fleet_ckpt_failfast.bin";
  std::remove(path.c_str());
  FleetConfig config = SmallFleet(1);
  config.checkpoint_path = path;
  config.checkpoint_every_devices = 1;
  config.fail_device_id = 2;
  auto report = RunFleet(config);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
  EXPECT_NE(report.status().message().find("device 2"), std::string::npos)
      << report.status().ToString();

  auto cp = ReadFleetCheckpoint(path);
  ASSERT_TRUE(cp.ok()) << cp.status().ToString();
  EXPECT_EQ(cp->CompletedCount(), 2);

  // The checkpoint written on the error path is a valid resume point once
  // the injected failure is removed.
  FleetConfig retry = SmallFleet(1);
  retry.checkpoint_path = path;
  auto resumed = ResumeFleet(retry);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->resumed_devices, 2);

  auto baseline = RunFleet(SmallFleet(1));
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(FleetDigest(*resumed), FleetDigest(*baseline));
  std::remove(path.c_str());
}

TEST(FleetTest, FailedDeviceCancelsParallelRun) {
  FleetConfig config = SmallFleet(4);
  config.fail_device_id = 0;
  auto report = RunFleet(config);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
}

// The tentpole acceptance: kill a run after K devices, resume from the
// checkpoint at several thread counts, and get a FleetDigest byte-identical
// to the uninterrupted run.
TEST(FleetTest, ResumeAfterAbortReproducesDigest) {
  auto baseline = RunFleet(SmallFleet(1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string digest = FleetDigest(*baseline);

  for (int resume_jobs : {1, 4}) {
    const std::string path = "fleet_ckpt_resume_" + std::to_string(resume_jobs) + ".bin";
    std::remove(path.c_str());
    FleetConfig interrupted = SmallFleet(1);
    interrupted.checkpoint_path = path;
    interrupted.checkpoint_every_devices = 1;
    interrupted.abort_after_devices = 3;
    auto aborted = RunFleet(interrupted);
    ASSERT_FALSE(aborted.ok());
    EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled)
        << aborted.status().ToString();

    FleetConfig resume_config = SmallFleet(resume_jobs);
    resume_config.checkpoint_path = path;
    auto resumed = ResumeFleet(resume_config);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->resumed_devices, 3);
    EXPECT_EQ(FleetDigest(*resumed), digest) << "jobs=" << resume_jobs;

    // The final checkpoint now covers the whole fleet; resuming again is a
    // no-op that re-yields the identical report.
    auto again = ResumeFleet(resume_config);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->resumed_devices, 8);
    EXPECT_EQ(FleetDigest(*again), digest);
    std::remove(path.c_str());
  }
}

TEST(FleetTest, StreamingModeResumeMatchesUninterrupted) {
  FleetConfig streaming = SmallFleet(1);
  streaming.retain_device_stats = false;
  auto baseline = RunFleet(streaming);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const std::string path = "fleet_ckpt_streaming.bin";
  std::remove(path.c_str());
  FleetConfig interrupted = streaming;
  interrupted.checkpoint_path = path;
  interrupted.checkpoint_every_devices = 1;
  interrupted.abort_after_devices = 4;
  EXPECT_EQ(RunFleet(interrupted).status().code(), StatusCode::kCancelled);

  FleetConfig resume_config = streaming;
  resume_config.checkpoint_path = path;
  auto resumed = ResumeFleet(resume_config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->devices.empty());
  EXPECT_EQ(resumed->resumed_devices, 4);
  EXPECT_EQ(FleetDigest(*resumed), FleetDigest(*baseline));
  std::remove(path.c_str());
}

TEST(FleetTest, ResumeValidatesConfigAndPath) {
  const std::string path = "fleet_ckpt_mismatch.bin";
  std::remove(path.c_str());
  FleetConfig interrupted = SmallFleet(1);
  interrupted.checkpoint_path = path;
  interrupted.checkpoint_every_devices = 1;
  interrupted.abort_after_devices = 2;
  ASSERT_EQ(RunFleet(interrupted).status().code(), StatusCode::kCancelled);

  FleetConfig wrong_seed = SmallFleet(1);
  wrong_seed.checkpoint_path = path;
  wrong_seed.fleet_seed ^= 1;
  EXPECT_EQ(ResumeFleet(wrong_seed).status().code(), StatusCode::kInvalidArgument);

  FleetConfig wrong_count = SmallFleet(1);
  wrong_count.checkpoint_path = path;
  wrong_count.device_count = 9;
  EXPECT_EQ(ResumeFleet(wrong_count).status().code(), StatusCode::kInvalidArgument);

  FleetConfig no_path = SmallFleet(1);
  EXPECT_EQ(ResumeFleet(no_path).status().code(), StatusCode::kInvalidArgument);

  FleetConfig missing = SmallFleet(1);
  missing.checkpoint_path = "definitely_missing_checkpoint.bin";
  EXPECT_EQ(ResumeFleet(missing).status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Worker-resident devices: every fleet device runs on a resident device
// Reset() from its cohort snapshot. The reference below is the fresh
// Clone + Run per device id that the fleet did before; the two must agree
// field for field.

using fleet_internal::ClonedDevice;
using fleet_internal::CohortRuntime;
using fleet_internal::ResidentDevices;

// One fleet device simulated on a freshly cloned device.
struct FreshDevice {
  DeviceStats stats;
  FaultLedger ledger;
};

FreshDevice RunFresh(const FleetConfig& config, const CohortRuntime& cohort, int id) {
  const uint32_t seed = fleet_internal::DeviceSeed(config.fleet_seed, id);
  FreshDevice out;
  out.stats.device_id = id;
  auto device = ClonedDevice::Clone(seed, config.fram_wait_states, cohort.firmware,
                                    cohort.snapshot, *cohort.os, config.predecode,
                                    config.flight_recorder);
  EXPECT_TRUE(device.ok()) << device.status().ToString();
  if (!device.ok()) {
    return out;
  }
  (*device)->os().sensors().set_mode(ActivityForDevice(cohort.cohort, seed));
  const Status run = (*device)->Run(config.sim_ms, cohort.regions, &out.stats, &out.ledger);
  EXPECT_TRUE(run.ok()) << run.ToString();
  out.stats.battery_impact_percent =
      fleet_internal::BatteryPercentFor(out.stats.cycles, config.sim_ms, config.energy);
  return out;
}

std::string RowText(const DeviceStats& d) {
  return StrFormat("d%d:%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%a", d.device_id,
                   static_cast<unsigned long long>(d.cycles),
                   static_cast<unsigned long long>(d.data_accesses),
                   static_cast<unsigned long long>(d.syscalls),
                   static_cast<unsigned long long>(d.dispatches),
                   static_cast<unsigned long long>(d.faults),
                   static_cast<unsigned long long>(d.pucs),
                   static_cast<unsigned long long>(d.watchdog_resets),
                   static_cast<unsigned long long>(d.instructions), d.battery_impact_percent);
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

// The four memory models, two of them running the crasher, so resets cross
// faulting devices and every cohort's slot is reused several times.
FleetConfig FourModelCrasherFleet() {
  FleetConfig config;
  config.device_count = 40;
  config.fleet_seed = 0x5EED;
  config.sim_ms = 500;  // the crasher faults every 100 ms
  for (const char* spec : {"a:1:none:pedometer+clock", "b:1:fl:pedometer+clock",
                           "c:1:sw:pedometer+crasher", "d:1:mpu:pedometer+crasher"}) {
    auto cohort = ParseCohortSpec(spec);
    EXPECT_TRUE(cohort.ok()) << cohort.status().ToString();
    config.profile.cohorts.push_back(*cohort);
  }
  return config;
}

TEST(FleetTest, ResidentDevicesMatchFreshClones) {
  const std::string path = "fleet_resident_equiv.ckpt";
  for (const bool predecode : {true, false}) {
    FleetConfig config = FourModelCrasherFleet();
    config.predecode = predecode;
    std::vector<std::unique_ptr<CohortRuntime>> cohorts;
    for (const Cohort& cohort : config.profile.cohorts) {
      auto runtime = fleet_internal::BootCohort(cohort, config);
      ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
      cohorts.push_back(std::move(*runtime));
    }
    std::vector<DeviceStats> fresh_rows;
    FaultLedger fresh_ledger;
    for (int id = 0; id < config.device_count; ++id) {
      const int c = CohortForDevice(config.profile, config.fleet_seed, id);
      FreshDevice fresh = RunFresh(config, *cohorts[static_cast<size_t>(c)], id);
      fresh_rows.push_back(fresh.stats);
      fresh_ledger.Merge(fresh.ledger);
    }
    ASSERT_GT(fresh_ledger.total_faults(), 0u) << "the crasher cohorts must fault";

    for (const int jobs : {1, 4}) {
      SCOPED_TRACE(StrFormat("predecode=%d jobs=%d", predecode ? 1 : 0, jobs));
      std::remove(path.c_str());
      config.jobs = jobs;
      config.checkpoint_path = path;
      auto report = RunFleet(config);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      for (int id = 0; id < config.device_count; ++id) {
        EXPECT_EQ(RowText(report->devices[static_cast<size_t>(id)]),
                  RowText(fresh_rows[static_cast<size_t>(id)]));
      }
      // JSONL carries each exemplar's call stack and flight tail.
      EXPECT_EQ(report->faults.ToJsonl(), fresh_ledger.ToJsonl());

      // The checkpoint with the fresh clones' rows and ledger put in must
      // encode to the very bytes the resident run wrote.
      const std::vector<uint8_t> written = ReadBytes(path);
      auto checkpoint = DecodeFleetCheckpoint(written);
      ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
      checkpoint->devices = fresh_rows;
      checkpoint->faults = fresh_ledger;
      EXPECT_EQ(EncodeFleetCheckpoint(*checkpoint), written);
    }
  }
  std::remove(path.c_str());
}

// A resident device reset from its snapshot must run exactly like a fresh
// clone, even after the previous device rewrote code (a host poke whose
// patched instruction then ran and was predecoded) or wrote InfoMem.
TEST(FleetTest, ResetDeviceMatchesFreshClone) {
  for (const bool predecode : {true, false}) {
    SCOPED_TRACE(predecode ? "predecode" : "interpreter");
    FleetConfig config;
    config.fleet_seed = 0xBEEF;
    config.sim_ms = 500;
    config.predecode = predecode;
    Cohort cohort;
    cohort.apps = {"pedometer", "crasher"};
    cohort.model = MemoryModel::kMpu;
    auto runtime = fleet_internal::BootCohort(cohort, config);
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
    const CohortRuntime& rt = **runtime;

    const FreshDevice fresh = RunFresh(config, rt, 7);
    ASSERT_GT(fresh.stats.faults, 0u);
    auto fresh_device = ClonedDevice::Clone(fleet_internal::DeviceSeed(config.fleet_seed, 7),
                                            config.fram_wait_states, rt.firmware, rt.snapshot,
                                            *rt.os, predecode);
    ASSERT_TRUE(fresh_device.ok());
    DeviceStats unused;
    ASSERT_TRUE((*fresh_device)->Run(config.sim_ms, rt.regions, &unused).ok());
    const MachineSnapshot fresh_end = CaptureSnapshot((*fresh_device)->machine());

    // The first device: run, then make the pedometer's first event handler
    // return at once and run again so the patched `ret` is what got cached.
    auto device = ClonedDevice::Clone(fleet_internal::DeviceSeed(config.fleet_seed, 1),
                                      config.fram_wait_states, rt.firmware, rt.snapshot, *rt.os,
                                      predecode);
    ASSERT_TRUE(device.ok()) << device.status().ToString();
    DeviceStats first;
    ASSERT_TRUE((*device)->Run(config.sim_ms, rt.regions, &first).ok());
    uint16_t handler = 0;
    for (size_t e = 1; e < static_cast<size_t>(EventType::kCount) && handler == 0; ++e) {
      handler = rt.firmware.apps[0].handlers[e];
    }
    ASSERT_NE(handler, 0);
    Bus& bus = (*device)->machine().bus();
    const uint16_t original = bus.PeekWord(handler);
    ASSERT_NE(original, 0x4130);
    bus.PokeWord(handler, 0x4130);  // ret
    DeviceStats patched;
    ASSERT_TRUE((*device)->Run(config.sim_ms, rt.regions, &patched).ok());
    ASSERT_GT(patched.dispatches, 0u);

    auto run_again = [&](const char* after) {
      SCOPED_TRACE(after);
      const uint32_t seed = fleet_internal::DeviceSeed(config.fleet_seed, 7);
      ASSERT_TRUE((*device)->Reset(seed, rt.snapshot, *rt.os).ok());
      EXPECT_EQ(bus.PeekWord(handler), original);
      (*device)->os().sensors().set_mode(ActivityForDevice(cohort, seed));
      DeviceStats stats;
      stats.device_id = 7;
      FaultLedger ledger;
      ASSERT_TRUE((*device)->Run(config.sim_ms, rt.regions, &stats, &ledger).ok());
      stats.battery_impact_percent =
          fleet_internal::BatteryPercentFor(stats.cycles, config.sim_ms, config.energy);
      EXPECT_EQ(RowText(stats), RowText(fresh.stats));
      EXPECT_EQ(ledger.ToJsonl(), fresh.ledger.ToJsonl());
      EXPECT_EQ(CaptureSnapshot((*device)->machine()).bytes, fresh_end.bytes);
    };
    run_again("reset after a code poke");

    BlData bl;
    bl.active_bank = 1;
    bl.attempt_count = 1;
    bl.current_version = 9;
    WriteBlData(&bus, bl);
    ASSERT_TRUE(ReadBlData(bus).ok());
    run_again("reset after an InfoMem write");
    EXPECT_EQ(ReadBlData(bus).ok(), ReadBlData((*fresh_device)->machine().bus()).ok());
  }
}

// A reset from a corrupt snapshot may leave the machine partly restored.
// That device must not run, and the resident slot holding it is dropped so
// the slot's next device is cloned afresh.
TEST(FleetTest, FailedResetDropsResidentSlot) {
  FleetConfig config;
  config.fleet_seed = 0xFA11;
  config.sim_ms = 300;
  Cohort cohort;
  cohort.apps = {"pedometer", "clock"};
  auto runtime = fleet_internal::BootCohort(cohort, config);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  CohortRuntime& rt = **runtime;
  const MachineSnapshot good = rt.snapshot;
  MachineSnapshot truncated = good;
  truncated.bytes.resize(truncated.bytes.size() / 2);

  ResidentDevices residents(1, 1);
  const uint32_t seed = fleet_internal::DeviceSeed(config.fleet_seed, 3);
  auto first = residents.Acquire(0, 0, seed, rt, config);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(residents.resident(0, 0), *first);

  // Straight on the device: the reset fails and the device refuses to run.
  EXPECT_FALSE((*first)->Reset(seed, truncated, *rt.os).ok());
  DeviceStats stats;
  EXPECT_FALSE((*first)->Run(config.sim_ms, rt.regions, &stats).ok());

  // Through the slot: the failed reset empties it.
  rt.snapshot = truncated;
  EXPECT_FALSE(residents.Acquire(0, 0, seed, rt, config).ok());
  EXPECT_EQ(residents.resident(0, 0), nullptr);

  // The next device gets a fresh clone that runs like any other.
  rt.snapshot = good;
  auto next = residents.Acquire(0, 0, seed, rt, config);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(residents.resident(0, 0), *next);
  (*next)->os().sensors().set_mode(ActivityForDevice(rt.cohort, seed));
  DeviceStats row;
  row.device_id = 3;
  ASSERT_TRUE((*next)->Run(config.sim_ms, rt.regions, &row).ok());
  row.battery_impact_percent =
      fleet_internal::BatteryPercentFor(row.cycles, config.sim_ms, config.energy);
  EXPECT_EQ(RowText(row), RowText(RunFresh(config, rt, 3).stats));
}

}  // namespace
}  // namespace amulet
