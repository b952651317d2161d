// OTA campaign tests: staged rollout determinism across thread counts,
// checkpoint/resume mid-campaign, fleet-wide rejection of tampered images,
// watchdog-storm rollback of a genuinely bad update, canary-stage aborts,
// and the AMFC v2 container (firmware-hash binding, whole-file checksum,
// version-1 migration error, exhaustive corruption sweep).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/aft/aft.h"
#include "src/apps/app_sources.h"
#include "src/fleet/campaign.h"
#include "src/common/strings.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/device.h"
#include "src/fleet/fleet.h"
#include "src/ota/bootloader.h"
#include "src/ota/image.h"

namespace amulet {
namespace {

// A small, fast campaign: 12 devices on one-app firmware, short workload and
// health windows. The update is a pure version bump (same app list), which
// still exercises pack -> stage -> verify -> activate -> health end to end.
CampaignConfig SmallCampaign(int jobs) {
  CampaignConfig config;
  config.fleet.device_count = 12;
  config.fleet.apps = {"pedometer"};
  config.fleet.model = MemoryModel::kMpu;
  config.fleet.fleet_seed = 0x0DA7;
  config.fleet.sim_ms = 200;
  config.fleet.jobs = jobs;
  config.health_ms = 200;
  config.from_version = 3;
  config.to_version = 4;
  return config;
}

// Packs the container the campaign would deploy for `apps`, so tests can
// tamper with it and hand RunCampaign an image_override.
std::vector<uint8_t> PackedImageFor(const std::vector<std::string>& apps,
                                    MemoryModel model, uint32_t version,
                                    const OtaKey& key) {
  std::vector<AppSource> sources;
  for (const std::string& name : apps) {
    for (const AppSpec& app : AmuletAppSuite()) {
      if (app.name == name) {
        sources.push_back({app.name, app.source});
      }
    }
    if (name == CrasherApp().name) {
      sources.push_back({CrasherApp().name, CrasherApp().source});
    }
  }
  AftOptions options;
  options.model = model;
  auto firmware = BuildFirmware(sources, options);
  EXPECT_TRUE(firmware.ok()) << firmware.status().ToString();
  return EncodeOtaImage(PackOtaImage(firmware->image, version, model, key));
}

TEST(CampaignTest, HappyPathUpdatesEveryDevice) {
  auto report = RunCampaign(SmallCampaign(1));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->aborted_stage, -1);
  ASSERT_EQ(report->devices.size(), 12u);
  for (const CampaignDeviceRow& row : report->devices) {
    EXPECT_EQ(row.outcome, OtaOutcome::kUpdated);
    EXPECT_EQ(row.firmware_version, 4u);
    EXPECT_GT(row.verify_cycles, 0u) << "MAC verification must cost simulated cycles";
    EXPECT_GT(row.stats.cycles, 0u);
  }
  // Default staging is 5% -> 50% -> 100%; stage sizes must cover the fleet.
  ASSERT_EQ(report->stages.size(), 3u);
  EXPECT_EQ(report->stages[0].device_count, 1);  // ceil(12 * 5%)
  EXPECT_EQ(report->stages[1].device_count, 5);  // up to ceil(12 * 50%)
  EXPECT_EQ(report->stages[2].device_count, 6);  // the rest
  for (const CampaignStageResult& stage : report->stages) {
    EXPECT_EQ(stage.rejected, 0);
    EXPECT_EQ(stage.rolled_back, 0);
    EXPECT_FALSE(stage.aborted_after);
  }
  // Version skew and outcome counters in the streaming registry.
  EXPECT_EQ(report->metrics.counter("campaign.updated"), 12u);
  EXPECT_EQ(report->metrics.counter("campaign.version.4"), 12u);
  EXPECT_EQ(report->metrics.counter("campaign.version.3"), 0u);
  EXPECT_GT(report->metrics.counter("campaign.verify_cycles"), 0u);
  const LogHistogram* verify = report->metrics.histogram("device.verify_cycles");
  ASSERT_NE(verify, nullptr);
  EXPECT_EQ(verify->count, 12u);
}

TEST(CampaignTest, DigestIsThreadCountIndependent) {
  auto serial = RunCampaign(SmallCampaign(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = RunCampaign(SmallCampaign(4));
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_FALSE(CampaignDigest(*serial).empty());
  EXPECT_EQ(CampaignDigest(*serial), CampaignDigest(*parallel));
}

TEST(CampaignTest, KillAndResumeReproducesDigest) {
  const std::string path = "campaign_ckpt_resume_test.bin";
  std::remove(path.c_str());

  auto uninterrupted = RunCampaign(SmallCampaign(1));
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  const std::string want = CampaignDigest(*uninterrupted);

  // Kill mid-campaign: abort after 5 completions, which lands inside stage 2
  // of the default 5/50/100 staging for 12 devices.
  CampaignConfig killed = SmallCampaign(1);
  killed.fleet.checkpoint_path = path;
  killed.fleet.checkpoint_every_devices = 1;
  killed.fleet.abort_after_devices = 5;
  auto cancelled = RunCampaign(killed);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  // Resume at a different thread count; digest must match byte for byte.
  CampaignConfig resume = SmallCampaign(4);
  resume.fleet.checkpoint_path = path;
  auto resumed = ResumeCampaign(resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->resumed_devices, 5);
  EXPECT_EQ(CampaignDigest(*resumed), want);

  // Resuming the now-complete checkpoint is a no-op with the same digest.
  auto again = ResumeCampaign(resume);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->resumed_devices, 12);
  EXPECT_EQ(CampaignDigest(*again), want);
  std::remove(path.c_str());
}

// The campaign half of the shared fail-fast path: an injected device
// failure cancels the remaining devices, the checkpoint written on the error
// path covers exactly the devices before it in rollout order, and resuming
// without the failure reproduces the uninterrupted digest.
TEST(CampaignTest, FailedDeviceCancelsRemainingDevices) {
  const std::string path = "campaign_ckpt_failfast.bin";
  std::remove(path.c_str());
  const CampaignConfig base = SmallCampaign(1);
  const std::vector<int> order =
      CampaignRolloutOrder(base.fleet.device_count, base.rollout_seed);
  const int failing_slot = 7;  // inside the last default stage
  const int failing_id = order[failing_slot];

  CampaignConfig config = base;
  config.fleet.checkpoint_path = path;
  config.fleet.checkpoint_every_devices = 1;
  config.fleet.fail_device_id = failing_id;
  auto report = RunCampaign(config);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
  EXPECT_NE(report.status().message().find("device " + std::to_string(failing_id)),
            std::string::npos)
      << report.status().ToString();

  auto cp = ReadFleetCheckpoint(path);
  ASSERT_TRUE(cp.ok()) << cp.status().ToString();
  EXPECT_EQ(cp->CompletedCount(), failing_slot);

  CampaignConfig retry = base;
  retry.fleet.checkpoint_path = path;
  auto resumed = ResumeCampaign(retry);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->resumed_devices, failing_slot);

  auto uninterrupted = RunCampaign(base);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  EXPECT_EQ(CampaignDigest(*resumed), CampaignDigest(*uninterrupted));
  std::remove(path.c_str());
}

TEST(CampaignTest, FailedDeviceCancelsParallelRun) {
  CampaignConfig config = SmallCampaign(4);
  config.fleet.fail_device_id = CampaignRolloutOrder(12, config.rollout_seed)[3];
  auto report = RunCampaign(config);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
}

// The campaign builds both firmware versions with fleet.check_opt, like a
// plain fleet run. Turning the bound-check optimizer off keeps the checks it
// would delete, so the image (and the firmware hash the checkpoint pins)
// changes and the software-model update costs more cycles. The suite apps'
// elidable checks sit in button handlers the fleet workload never presses,
// so the extra cycles show up in the bootloader's MAC verification of the
// larger image.
TEST(CampaignTest, HonorsCheckOpt) {
  const std::string path = "campaign_ckpt_check_opt.bin";
  struct Outcome {
    std::string from_hash;
    uint64_t cycles = 0;
  };
  auto run = [&](bool check_opt) {
    std::remove(path.c_str());
    CampaignConfig config = SmallCampaign(1);
    config.fleet.apps = {"pedometer", "activity"};
    config.fleet.model = MemoryModel::kSoftwareOnly;
    config.fleet.check_opt = check_opt;
    config.fleet.checkpoint_path = path;
    Outcome out;
    auto report = RunCampaign(config);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) {
      return out;
    }
    out.cycles = report->metrics.counter("fleet.cycles") +
                 report->metrics.counter("campaign.verify_cycles");
    auto cp = ReadFleetCheckpoint(path);
    EXPECT_TRUE(cp.ok()) << cp.status().ToString();
    if (cp.ok()) {
      const size_t at = cp->config_text.find(";fw=");
      EXPECT_NE(at, std::string::npos) << cp->config_text;
      out.from_hash = cp->config_text.substr(at, 4 + 16);
    }
    std::remove(path.c_str());
    return out;
  };
  const Outcome optimized = run(true);
  const Outcome unoptimized = run(false);
  EXPECT_NE(optimized.from_hash, unoptimized.from_hash);
  EXPECT_GT(unoptimized.cycles, optimized.cycles);
}

// Acceptance: a tampered image (payload bit flipped, transport checksums
// re-fixed by the attacker) decodes cleanly but is rejected by the simulated
// bootloader on EVERY device — zero devices end up on the bad version.
TEST(CampaignTest, TamperedImageIsRejectedFleetWide) {
  CampaignConfig config = SmallCampaign(4);
  config.stages = {{100, 1.0}};  // let every device attempt, no canary abort
  const std::vector<uint8_t> clean = PackedImageFor(
      config.fleet.apps, config.fleet.model, config.to_version, config.key);
  auto tampered = TamperOtaImage(clean, 64 + 129);  // a payload bit
  ASSERT_TRUE(tampered.ok()) << tampered.status().ToString();
  config.image_override = *tampered;

  auto report = RunCampaign(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const CampaignDeviceRow& row : report->devices) {
    EXPECT_EQ(row.outcome, OtaOutcome::kRejected);
    EXPECT_EQ(row.firmware_version, 3u) << "no device may run the tampered version";
    EXPECT_GT(row.verify_cycles, 0u);
  }
  EXPECT_EQ(report->metrics.counter("campaign.rejected"), 12u);
  EXPECT_EQ(report->metrics.counter("campaign.version.4"), 0u);
  EXPECT_EQ(report->metrics.counter("campaign.version.3"), 12u);

  // A flipped MAC bit is equally dead.
  auto mac_tampered = TamperOtaImage(clean, 7);
  ASSERT_TRUE(mac_tampered.ok()) << mac_tampered.status().ToString();
  config.image_override = *mac_tampered;
  auto report2 = RunCampaign(config);
  ASSERT_TRUE(report2.ok()) << report2.status().ToString();
  EXPECT_EQ(report2->metrics.counter("campaign.rejected"), 12u);
  EXPECT_EQ(report2->metrics.counter("campaign.version.4"), 0u);
}

// With the default canary staging, a tampered image never makes it past
// stage 0: the canary's 100% failure rate trips the threshold and the rest
// of the fleet is never touched.
TEST(CampaignTest, CanaryStageAbortsBadRollout) {
  CampaignConfig config = SmallCampaign(1);
  config.fleet.device_count = 40;
  const std::vector<uint8_t> clean = PackedImageFor(
      config.fleet.apps, config.fleet.model, config.to_version, config.key);
  auto tampered = TamperOtaImage(clean, 3);
  ASSERT_TRUE(tampered.ok()) << tampered.status().ToString();
  config.image_override = *tampered;

  auto report = RunCampaign(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->aborted_stage, 0);
  ASSERT_EQ(report->stages.size(), 1u);
  EXPECT_TRUE(report->stages[0].aborted_after);
  EXPECT_EQ(report->stages[0].device_count, 2);  // ceil(40 * 5%)
  EXPECT_EQ(report->stages[0].rejected, 2);
  int rejected = 0;
  int untouched = 0;
  for (const CampaignDeviceRow& row : report->devices) {
    if (row.outcome == OtaOutcome::kRejected) {
      ++rejected;
    } else {
      EXPECT_EQ(row.outcome, OtaOutcome::kNotAttempted);
      ++untouched;
    }
    EXPECT_EQ(row.firmware_version, 3u);
  }
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(untouched, 38);
  EXPECT_EQ(report->metrics.counter("campaign.not_attempted"), 38u);
  EXPECT_EQ(report->metrics.counter("campaign.version.3"), 40u);
}

// A genuinely bad update: an authentic image whose firmware faults every
// timer tick. Every device accepts the MAC, activates, storms the watchdog
// inside the health window, and rolls back to the prior version.
TEST(CampaignTest, WatchdogStormRollsBackBadUpdate) {
  CampaignConfig config = SmallCampaign(4);
  config.fleet.device_count = 8;
  config.to_apps = {"clock", "crasher"};
  config.health_ms = 800;  // crasher faults every 100 ms
  config.storm_threshold = 3;
  config.stages = {{100, 1.0}};

  auto report = RunCampaign(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const CampaignDeviceRow& row : report->devices) {
    EXPECT_EQ(row.outcome, OtaOutcome::kRolledBack);
    EXPECT_EQ(row.firmware_version, 3u) << "rollback must restore the prior version";
    EXPECT_GE(row.stats.watchdog_resets, 3u);
  }
  EXPECT_EQ(report->metrics.counter("campaign.rolled_back"), 8u);
  EXPECT_EQ(report->metrics.counter("campaign.version.4"), 0u);
  EXPECT_EQ(report->metrics.counter("campaign.version.3"), 8u);
  EXPECT_GT(report->metrics.counter("fleet.watchdog_resets"), 0u);
}

// The default canary staging contains a storm of rollbacks just as it
// contains rejections.
TEST(CampaignTest, CanaryCatchesStormingUpdate) {
  CampaignConfig config = SmallCampaign(1);
  config.fleet.device_count = 20;
  config.to_apps = {"clock", "crasher"};
  config.health_ms = 800;
  auto report = RunCampaign(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->aborted_stage, 0);
  ASSERT_EQ(report->stages.size(), 1u);
  EXPECT_EQ(report->stages[0].rolled_back, report->stages[0].device_count);
  EXPECT_EQ(report->metrics.counter("campaign.version.4"), 0u);
}

// Campaign devices run both firmware phases on worker-resident devices.
// Each row must match the fresh Clone + Run per phase the campaign did
// before: the workload on the old firmware, then (for an accepted image)
// the health window on the new one with the activated bl-data.
TEST(CampaignTest, ResidentDevicesMatchFreshClones) {
  using fleet_internal::ClonedDevice;
  CampaignConfig storming = SmallCampaign(1);
  storming.fleet.device_count = 10;
  storming.to_apps = {"clock", "crasher"};
  storming.health_ms = 800;  // crasher faults every 100 ms
  storming.stages = {{100, 1.0}};
  for (const CampaignConfig& base : {SmallCampaign(1), storming}) {
    for (const bool predecode : {true, false}) {
      CampaignConfig config = base;
      config.fleet.predecode = predecode;
      Cohort from_cohort;
      from_cohort.apps = config.fleet.apps;
      from_cohort.model = config.fleet.model;
      Cohort to_cohort = from_cohort;
      if (!config.to_apps.empty()) {
        to_cohort.apps = config.to_apps;
      }
      auto from = fleet_internal::BootCohort(from_cohort, config.fleet);
      auto to = fleet_internal::BootCohort(to_cohort, config.fleet);
      ASSERT_TRUE(from.ok() && to.ok());

      for (const int jobs : {1, 4}) {
        SCOPED_TRACE(StrFormat("to_apps=%zu predecode=%d jobs=%d", config.to_apps.size(),
                               predecode ? 1 : 0, jobs));
        config.fleet.jobs = jobs;
        auto report = RunCampaign(config);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        FaultLedger fresh_ledger;
        for (const CampaignDeviceRow& row : report->devices) {
          ASSERT_NE(row.outcome, OtaOutcome::kNotAttempted);
          const int id = row.stats.device_id;
          const uint32_t seed = fleet_internal::DeviceSeed(config.fleet.fleet_seed, id);
          DeviceStats fresh;
          fresh.device_id = id;
          FaultLedger ledger;  // one per device, merged once
          auto device = ClonedDevice::Clone(seed, config.fleet.fram_wait_states,
                                            (*from)->firmware, (*from)->snapshot,
                                            *(*from)->os, predecode);
          ASSERT_TRUE(device.ok());
          ASSERT_TRUE((*device)
                          ->Run(config.fleet.sim_ms, (*from)->regions, &fresh, &ledger)
                          .ok());
          uint64_t span_ms = config.fleet.sim_ms;
          if (row.outcome != OtaOutcome::kRejected) {
            auto updated = ClonedDevice::Clone(
                seed ^ fleet_internal::Mix32(config.to_version), config.fleet.fram_wait_states,
                (*to)->firmware, (*to)->snapshot, *(*to)->os, predecode);
            ASSERT_TRUE(updated.ok());
            BlData bl;
            bl.active_bank = 1;
            bl.attempt_count = 1;
            bl.current_version = config.to_version;
            bl.prior_version = config.from_version;
            WriteBlData(&(*updated)->machine().bus(), bl);
            ASSERT_TRUE((*updated)
                            ->Run(config.health_ms, (*to)->regions, &fresh, &ledger)
                            .ok());
            span_ms += config.health_ms;
          }
          fresh_ledger.Merge(ledger);
          fresh.battery_impact_percent =
              fleet_internal::BatteryPercentFor(fresh.cycles, span_ms, config.fleet.energy);
          const DeviceStats& got = row.stats;
          EXPECT_EQ(got.cycles, fresh.cycles) << "device " << id;
          EXPECT_EQ(got.instructions, fresh.instructions) << "device " << id;
          EXPECT_EQ(got.data_accesses, fresh.data_accesses) << "device " << id;
          EXPECT_EQ(got.syscalls, fresh.syscalls) << "device " << id;
          EXPECT_EQ(got.dispatches, fresh.dispatches) << "device " << id;
          EXPECT_EQ(got.faults, fresh.faults) << "device " << id;
          EXPECT_EQ(got.pucs, fresh.pucs) << "device " << id;
          EXPECT_EQ(got.watchdog_resets, fresh.watchdog_resets) << "device " << id;
          EXPECT_EQ(got.battery_impact_percent, fresh.battery_impact_percent) << "device " << id;
        }
        EXPECT_EQ(report->faults.ToJsonl(), fresh_ledger.ToJsonl());
      }
    }
  }
}

TEST(CampaignTest, ValidatesConfig) {
  CampaignConfig same_version = SmallCampaign(1);
  same_version.to_version = same_version.from_version;
  EXPECT_EQ(RunCampaign(same_version).status().code(), StatusCode::kInvalidArgument);

  CampaignConfig not_increasing = SmallCampaign(1);
  not_increasing.stages = {{50, 0.25}, {50, 0.25}, {100, 0.25}};
  EXPECT_EQ(RunCampaign(not_increasing).status().code(), StatusCode::kInvalidArgument);

  CampaignConfig not_to_100 = SmallCampaign(1);
  not_to_100.stages = {{5, 0.25}, {50, 0.25}};
  EXPECT_EQ(RunCampaign(not_to_100).status().code(), StatusCode::kInvalidArgument);

  CampaignConfig bad_threshold = SmallCampaign(1);
  bad_threshold.stages = {{100, 1.5}};
  EXPECT_EQ(RunCampaign(bad_threshold).status().code(), StatusCode::kInvalidArgument);

  CampaignConfig bad_storm = SmallCampaign(1);
  bad_storm.storm_threshold = 0;
  EXPECT_EQ(RunCampaign(bad_storm).status().code(), StatusCode::kInvalidArgument);
}

TEST(CampaignTest, RolloutOrderIsSeededPermutation) {
  const std::vector<int> a = CampaignRolloutOrder(100, 1);
  const std::vector<int> b = CampaignRolloutOrder(100, 1);
  const std::vector<int> c = CampaignRolloutOrder(100, 2);
  EXPECT_EQ(a, b) << "same seed, same order";
  EXPECT_NE(a, c) << "different seed, different order";
  std::vector<bool> seen(100, false);
  for (int id : a) {
    ASSERT_GE(id, 0);
    ASSERT_LT(id, 100);
    EXPECT_FALSE(seen[static_cast<size_t>(id)]);
    seen[static_cast<size_t>(id)] = true;
  }
}

TEST(CampaignTest, RenderMentionsStagesAndOutcomes) {
  auto report = RunCampaign(SmallCampaign(1));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string text = RenderCampaignReport(*report);
  EXPECT_NE(text.find("v3 -> v4"), std::string::npos) << text;
  EXPECT_NE(text.find("12 updated"), std::string::npos) << text;
  EXPECT_NE(text.find("version skew"), std::string::npos) << text;
  EXPECT_NE(text.find("MAC verification"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Checkpoint-kind and firmware-hash binding

TEST(CampaignTest, ResumeRejectsMismatchedConfigAndKind) {
  const std::string path = "campaign_ckpt_mismatch_test.bin";
  std::remove(path.c_str());

  CampaignConfig killed = SmallCampaign(1);
  killed.fleet.checkpoint_path = path;
  killed.fleet.checkpoint_every_devices = 1;
  killed.fleet.abort_after_devices = 2;
  ASSERT_EQ(RunCampaign(killed).status().code(), StatusCode::kCancelled);

  // Different campaign parameters cannot resume this checkpoint.
  CampaignConfig other = SmallCampaign(1);
  other.fleet.checkpoint_path = path;
  other.to_version = 9;
  EXPECT_EQ(ResumeCampaign(other).status().code(), StatusCode::kInvalidArgument);

  // Neither can a different deployed image (tampering changes the image FNV
  // that the campaign canonical folds in).
  CampaignConfig other_image = SmallCampaign(1);
  other_image.fleet.checkpoint_path = path;
  const std::vector<uint8_t> clean =
      PackedImageFor(other_image.fleet.apps, other_image.fleet.model,
                     other_image.to_version, other_image.key);
  auto tampered = TamperOtaImage(clean, 0);
  ASSERT_TRUE(tampered.ok()) << tampered.status().ToString();
  other_image.image_override = *tampered;
  EXPECT_EQ(ResumeCampaign(other_image).status().code(), StatusCode::kInvalidArgument);

  // A campaign checkpoint is not resumable as a plain fleet run.
  FleetConfig as_fleet = SmallCampaign(1).fleet;
  as_fleet.checkpoint_path = path;
  EXPECT_EQ(ResumeFleet(as_fleet).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());

  // And a fleet checkpoint is not resumable as a campaign.
  FleetConfig fleet_config = SmallCampaign(1).fleet;
  fleet_config.checkpoint_path = path;
  fleet_config.checkpoint_every_devices = 1;
  fleet_config.abort_after_devices = 2;
  ASSERT_EQ(RunFleet(fleet_config).status().code(), StatusCode::kCancelled);
  CampaignConfig as_campaign = SmallCampaign(1);
  as_campaign.fleet.checkpoint_path = path;
  EXPECT_EQ(ResumeCampaign(as_campaign).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// The firmware image hash is part of the config identity: same config +
// different firmware bytes = different hash, and the canonical string shows
// the fingerprint for diagnostics.
TEST(CheckpointV2Test, ConfigHashBindsFirmwareImage) {
  FleetConfig config;
  config.apps = {"clock"};
  EXPECT_NE(FleetConfigHash(config, 0x1111), FleetConfigHash(config, 0x2222));
  EXPECT_EQ(FleetConfigHash(config, 0x1111), FleetConfigHash(config, 0x1111));
  EXPECT_NE(FleetConfigCanonical(config, 0x1111).find("fw=0000000000001111"),
            std::string::npos)
      << FleetConfigCanonical(config, 0x1111);
}

// A compact checkpoint for exhaustive corruption sweeps (a real template
// snapshot is tens of kilobytes; decode never interprets its contents, so a
// stub keeps the sweep fast while covering every container code path).
FleetCheckpoint TinyCheckpoint(FleetCheckpointKind kind) {
  FleetCheckpoint cp;
  cp.kind = kind;
  cp.config_hash = 0x1234567890ABCDEFull;
  cp.config_text = "devices=4;apps=clock";
  cp.template_snapshot.bytes = {0xAA, 0xBB, 0xCC};
  cp.metrics.Add("fleet.devices", 2);
  cp.metrics.Observe("device.cycles", 999);
  cp.device_count = 4;
  cp.completed = {true, false, true, false};
  DeviceStats d0;
  d0.device_id = 0;
  d0.cycles = 111;
  d0.watchdog_resets = 2;
  DeviceStats d2;
  d2.device_id = 2;
  d2.cycles = 222;
  cp.devices = {d0, d2};
  if (kind == FleetCheckpointKind::kCampaign) {
    cp.campaign_devices = {{0, 1, 7, 5000}, {2, 3, 6, 5100}};
  }
  return cp;
}

TEST(CheckpointV2Test, CampaignRecordsRoundTrip) {
  const FleetCheckpoint cp = TinyCheckpoint(FleetCheckpointKind::kCampaign);
  auto decoded = DecodeFleetCheckpoint(EncodeFleetCheckpoint(cp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, FleetCheckpointKind::kCampaign);
  ASSERT_EQ(decoded->campaign_devices.size(), 2u);
  EXPECT_EQ(decoded->campaign_devices[0].device_id, 0);
  EXPECT_EQ(decoded->campaign_devices[0].outcome, 1);
  EXPECT_EQ(decoded->campaign_devices[0].firmware_version, 7u);
  EXPECT_EQ(decoded->campaign_devices[0].verify_cycles, 5000u);
  EXPECT_EQ(decoded->campaign_devices[1].outcome, 3);
  ASSERT_EQ(decoded->devices.size(), 2u);
  EXPECT_EQ(decoded->devices[0].watchdog_resets, 2u);
}

TEST(CheckpointV2Test, VersionOneFilesGetAClearMigrationError) {
  std::vector<uint8_t> bytes =
      EncodeFleetCheckpoint(TinyCheckpoint(FleetCheckpointKind::kFleet));
  bytes[4] = 1;  // rewrite the u32 version field to 1
  bytes[5] = bytes[6] = bytes[7] = 0;
  auto decoded = DecodeFleetCheckpoint(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("version 1"), std::string::npos)
      << decoded.status().message();
  EXPECT_NE(decoded.status().message().find("re-run without --resume"),
            std::string::npos)
      << decoded.status().message();
}

// Satellite: every truncation point and every single-bit flip of a valid
// AMFC container must decode to InvalidArgument — never crash, never
// partially apply. The whole-file FNV trailer is what makes the bit-flip
// half of this sweep hold unconditionally.
TEST(CheckpointV2FuzzTest, EveryTruncationIsInvalidArgument) {
  for (FleetCheckpointKind kind :
       {FleetCheckpointKind::kFleet, FleetCheckpointKind::kCampaign}) {
    const std::vector<uint8_t> bytes = EncodeFleetCheckpoint(TinyCheckpoint(kind));
    for (size_t len = 0; len < bytes.size(); ++len) {
      const std::vector<uint8_t> truncated(bytes.begin(),
                                           bytes.begin() + static_cast<long>(len));
      auto decoded = DecodeFleetCheckpoint(truncated);
      ASSERT_FALSE(decoded.ok()) << "length " << len;
      ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << "length " << len << ": " << decoded.status().ToString();
    }
  }
}

TEST(CheckpointV2FuzzTest, EverySingleBitFlipIsInvalidArgument) {
  for (FleetCheckpointKind kind :
       {FleetCheckpointKind::kFleet, FleetCheckpointKind::kCampaign}) {
    const std::vector<uint8_t> bytes = EncodeFleetCheckpoint(TinyCheckpoint(kind));
    for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
      std::vector<uint8_t> damaged = bytes;
      damaged[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      auto decoded = DecodeFleetCheckpoint(damaged);
      ASSERT_FALSE(decoded.ok()) << "bit " << bit;
      ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << "bit " << bit << ": " << decoded.status().ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Watchdog-reset metric in plain fleet runs (satellite of the OTA work)

TEST(FleetWatchdogTest, WatchdogResetsSurfaceInMetrics) {
  FleetConfig config;
  config.device_count = 4;
  config.apps = {"clock", "crasher"};
  config.model = MemoryModel::kMpu;
  config.fleet_seed = 77;
  config.sim_ms = 600;  // crasher faults every 100 ms
  config.jobs = 1;
  auto report = RunFleet(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->aggregate.total_watchdog_resets, 0u);
  EXPECT_EQ(report->metrics.counter("fleet.watchdog_resets"),
            report->aggregate.total_watchdog_resets);
  const LogHistogram* h = report->metrics.histogram("device.watchdog_resets");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 4u);
  for (const DeviceStats& d : report->devices) {
    EXPECT_GT(d.watchdog_resets, 0u);
  }
}

// ---------------------------------------------------------------------------
// Acceptance scale test: a seeded 1000-device staged campaign is digest-
// identical at --jobs 1 and --jobs N, and a kill + resume reproduces it.

CampaignConfig ScaleCampaign(int jobs) {
  CampaignConfig config;
  config.fleet.device_count = 1000;
  config.fleet.apps = {"pedometer"};
  config.fleet.model = MemoryModel::kMpu;
  config.fleet.fleet_seed = 0x5CA1E;
  config.fleet.sim_ms = 50;
  config.fleet.jobs = jobs;
  config.health_ms = 20;
  config.rollout_seed = 42;
  return config;
}

TEST(CampaignScaleTest, ThousandDeviceStagedRolloutIsDeterministic) {
  auto serial = RunCampaign(ScaleCampaign(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const std::string want = CampaignDigest(*serial);
  EXPECT_EQ(serial->metrics.counter("campaign.updated"), 1000u);
  ASSERT_EQ(serial->stages.size(), 3u);
  EXPECT_EQ(serial->stages[0].device_count, 50);   // 5% canary
  EXPECT_EQ(serial->stages[1].device_count, 450);  // to 50%
  EXPECT_EQ(serial->stages[2].device_count, 500);  // to 100%

  auto parallel = RunCampaign(ScaleCampaign(0));
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(CampaignDigest(*parallel), want);

  const std::string path = "campaign_ckpt_scale_test.bin";
  std::remove(path.c_str());
  CampaignConfig killed = ScaleCampaign(0);
  killed.fleet.checkpoint_path = path;
  killed.fleet.abort_after_devices = 137;  // dies inside stage 2
  ASSERT_EQ(RunCampaign(killed).status().code(), StatusCode::kCancelled);
  CampaignConfig resume = ScaleCampaign(0);
  resume.fleet.checkpoint_path = path;
  auto resumed = ResumeCampaign(resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_GE(resumed->resumed_devices, 137);
  EXPECT_EQ(CampaignDigest(*resumed), want);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace amulet
