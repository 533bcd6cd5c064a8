// Fleet subsystem tests (DESIGN.md §15): spec round-trips and resume
// fingerprinting, population purity, shard payload purity, aggregate
// encode/merge contracts, the FLCF+FLEE blob, and — the subsystem's
// load-bearing promise — byte-identical digests and reports across the
// serial / --jobs / --procs / crash-and-resume execution lanes.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/coordinator.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/population.hpp"
#include "fleet/runner.hpp"
#include "fleet/spec.hpp"
#include "snapshot/atomic_file.hpp"
#include "snapshot/blob.hpp"
#include "snapshot/digest.hpp"
#include "study/population.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define MVQOE_TEST_FORK 1
#else
#define MVQOE_TEST_FORK 0
#endif

namespace {

using namespace mvqoe;

/// Unique scratch path under the test working directory, cleaned up on
/// destruction.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_("fleet_test_" + name + "_" + std::to_string(::testing::UnitTest::GetInstance()
                                                              ->random_seed()) +
              ".mvqs") {
    std::remove(path_.c_str());
  }
  ~ScratchFile() {
    std::remove(path_.c_str());
    std::remove(snapshot::atomic_temp_path(path_).c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Small but multi-shard fleet: 6 units of <= 16 devices, short
/// sessions, so every lane finishes in well under a second.
fleet::FleetSpec tiny_spec() {
  fleet::FleetSpec spec;
  spec.devices = 90;
  spec.seed = 21;
  spec.session_s = 3;
  spec.sample_period_s = 2;
  spec.warmup_s = 1;
  spec.shard_size = 16;
  return spec;
}

fleet::FleetRunOptions fast_options() { return fleet::FleetRunOptions{}; }

/// The coordinator: `procs` worker processes (0: in process), two units
/// per shard.
campaign::CampaignOptions coordinator(int procs) {
  campaign::CampaignOptions opts;
  opts.procs = procs;
  opts.shard_size = 2;
  return opts;
}

/// The checkpoint's resume guard: the coordinator's digest of the config.
std::uint64_t fingerprint(const fleet::FleetSpec& spec) {
  return snapshot::digest_bytes(fleet::encode_fleet_config(spec));
}

// --- Spec -------------------------------------------------------------------

TEST(FleetSpec, ConfigRoundTripsExactly) {
  fleet::FleetSpec spec;
  spec.devices = 123456;
  spec.seed = 0xDEADBEEFULL;
  spec.session_s = 45;
  spec.sample_period_s = 3;
  spec.warmup_s = 7;
  spec.shard_size = 512;
  const fleet::FleetSpec back = fleet::decode_fleet_config(fleet::encode_fleet_config(spec));
  EXPECT_EQ(back.devices, spec.devices);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.session_s, spec.session_s);
  EXPECT_EQ(back.sample_period_s, spec.sample_period_s);
  EXPECT_EQ(back.warmup_s, spec.warmup_s);
  EXPECT_EQ(back.shard_size, spec.shard_size);
}

TEST(FleetSpec, FingerprintCoversEveryField) {
  const fleet::FleetSpec base = tiny_spec();
  const std::uint64_t fp = fingerprint(base);
  EXPECT_EQ(fingerprint(tiny_spec()), fp);
  auto differs = [&](auto mutate) {
    fleet::FleetSpec spec = base;
    mutate(spec);
    EXPECT_NE(fingerprint(spec), fp);
  };
  differs([](fleet::FleetSpec& s) { s.devices += 1; });
  differs([](fleet::FleetSpec& s) { s.seed += 1; });
  differs([](fleet::FleetSpec& s) { s.session_s += 1; });
  differs([](fleet::FleetSpec& s) { s.sample_period_s += 1; });
  differs([](fleet::FleetSpec& s) { s.warmup_s += 1; });
  differs([](fleet::FleetSpec& s) { s.shard_size += 1; });
}

TEST(FleetSpec, DecodeRejectsMalformedConfigs) {
  const std::string good = fleet::encode_fleet_config(tiny_spec());
  EXPECT_THROW(fleet::decode_fleet_config(good + "x"), std::exception);          // trailing
  EXPECT_THROW(fleet::decode_fleet_config(good.substr(0, 9)), std::exception);   // truncated
  std::string bad_version = good;
  bad_version[0] = 9;
  EXPECT_THROW(fleet::decode_fleet_config(bad_version), std::exception);
  fleet::FleetSpec zero = tiny_spec();
  zero.devices = 0;
  EXPECT_THROW(fleet::decode_fleet_config(fleet::encode_fleet_config(zero)), std::exception);
}

TEST(FleetSpec, TotalUnitsIsCeilingDivision) {
  fleet::FleetSpec spec = tiny_spec();
  EXPECT_EQ(fleet::fleet_total_units(spec), 6u);  // 90 / 16 -> 5 full + 10
  spec.devices = 96;
  EXPECT_EQ(fleet::fleet_total_units(spec), 6u);  // exact division
  spec.devices = 1;
  EXPECT_EQ(fleet::fleet_total_units(spec), 1u);
}

// --- Population -------------------------------------------------------------

TEST(FleetPopulation, SamplingIsPureAndInRange) {
  const std::size_t families = study::fleet_families().size();
  for (std::uint64_t i = 0; i < 64; ++i) {
    const fleet::FleetDevice a = fleet::sample_fleet_device(i, 21);
    const fleet::FleetDevice b = fleet::sample_fleet_device(i, 21);
    EXPECT_EQ(a.family, b.family);
    EXPECT_EQ(a.cohort, b.cohort);
    EXPECT_EQ(a.session_seed, b.session_seed);
    EXPECT_EQ(a.user.max_open_apps, b.user.max_open_apps);
    EXPECT_LT(a.family, families);
    EXPECT_LT(a.cohort, fleet::kCohorts);
    EXPECT_GE(a.user.rating_video, 1);
    EXPECT_LE(a.user.rating_video, 5);
  }
  EXPECT_NE(fleet::sample_fleet_device(0, 21).session_seed,
            fleet::sample_fleet_device(1, 21).session_seed);
}

TEST(FleetPopulation, CohortPreloadIsCappedByRetainableRam) {
  EXPECT_EQ(fleet::cohort_preload_apps(0, 8192), 0);
  EXPECT_EQ(fleet::cohort_preload_apps(1, 4096), 3);
  EXPECT_EQ(fleet::cohort_preload_apps(2, 8192), 6);
  // A 1 GB device retains at most 2 preloads no matter the cohort.
  EXPECT_EQ(fleet::cohort_preload_apps(1, 1024), 2);
  EXPECT_EQ(fleet::cohort_preload_apps(2, 1024), 2);
  EXPECT_EQ(fleet::cohort_preload_apps(2, 2048), 4);
}

TEST(FleetPopulation, WorldSeedsDisjointFromDeviceStreams) {
  // World streams set bit 32 of the derive index; device streams use
  // 2*index(+1), so collisions would need 2^31 devices.
  const std::uint64_t w00 = fleet::fleet_world_seed(21, 0, 0);
  EXPECT_NE(w00, fleet::fleet_world_seed(21, 0, 1));
  EXPECT_NE(w00, fleet::fleet_world_seed(21, 1, 0));
  EXPECT_NE(w00, fleet::fleet_world_seed(22, 0, 0));
}

// --- Shard payloads ---------------------------------------------------------

TEST(FleetUnit, PayloadIsPureFunctionOfSpecAndUnit) {
  const fleet::FleetSpec spec = tiny_spec();
  EXPECT_EQ(fleet::run_fleet_unit(spec, 0), fleet::run_fleet_unit(spec, 0));
  EXPECT_NE(fleet::run_fleet_unit(spec, 0), fleet::run_fleet_unit(spec, 1));
}

TEST(FleetUnit, LastShardCoversTheRemainder) {
  const fleet::FleetSpec spec = tiny_spec();
  const fleet::FleetAggregate last =
      fleet::FleetAggregate::decode(fleet::run_fleet_unit(spec, 5));
  EXPECT_EQ(last.device_count, 10u);  // 90 - 5 * 16
  const fleet::FleetAggregate full =
      fleet::FleetAggregate::decode(fleet::run_fleet_unit(spec, 0));
  EXPECT_EQ(full.device_count, 16u);
}

// --- Aggregate --------------------------------------------------------------

TEST(FleetAggregate, EncodeDecodeRoundTripsExactly) {
  const fleet::FleetSpec spec = tiny_spec();
  const std::string bytes = fleet::run_fleet_unit(spec, 2);
  const fleet::FleetAggregate agg = fleet::FleetAggregate::decode(bytes);
  EXPECT_EQ(agg.encode(), bytes);
  EXPECT_EQ(fleet::FleetAggregate::decode(agg.encode()).digest(), agg.digest());
  EXPECT_THROW(fleet::FleetAggregate::decode(bytes.substr(0, bytes.size() / 2)),
               std::exception);
}

TEST(FleetAggregate, AscendingMergeOfShardsMatchesFullRun) {
  const fleet::FleetSpec spec = tiny_spec();
  fleet::FleetAggregate merged;
  for (std::uint64_t unit = 0; unit < fleet::fleet_total_units(spec); ++unit) {
    merged.merge(fleet::FleetAggregate::decode(fleet::run_fleet_unit(spec, unit)));
  }
  const fleet::FleetRunResult serial = fleet::run_fleet(spec, fast_options());
  ASSERT_TRUE(serial.complete);
  EXPECT_EQ(merged.encode(), serial.aggregate.encode());
  EXPECT_EQ(merged.device_count, spec.devices);
  EXPECT_EQ(merged.session_seconds,
            spec.devices * static_cast<std::uint64_t>(spec.session_s));
}

TEST(FleetAggregate, BlobRoundTripsConfigAndAggregate) {
  const fleet::FleetSpec spec = tiny_spec();
  fleet::FleetAggregate agg =
      fleet::FleetAggregate::decode(fleet::run_fleet_unit(spec, 0));
  const snapshot::Snapshot blob = fleet::save_fleet_blob(spec, agg);
  const snapshot::Snapshot reparsed = snapshot::Snapshot::parse(blob.serialize());
  const auto [spec2, agg2] = fleet::load_fleet_blob(reparsed);
  EXPECT_EQ(fingerprint(spec2), fingerprint(spec));
  EXPECT_EQ(agg2.encode(), agg.encode());
  EXPECT_EQ(fleet::fleet_report_json(spec2, agg2), fleet::fleet_report_json(spec, agg));
  EXPECT_THROW(fleet::load_fleet_blob(snapshot::Snapshot()), std::exception);
}

// --- Execution lanes --------------------------------------------------------

TEST(FleetLanes, ThreadLaneMatchesSerialByteForByte) {
  const fleet::FleetSpec spec = tiny_spec();
  const fleet::FleetRunResult serial = fleet::run_fleet(spec, fast_options());
  auto opts = fast_options();
  opts.jobs = 3;
  const fleet::FleetRunResult jobs = fleet::run_fleet(spec, opts);
  ASSERT_TRUE(serial.complete);
  ASSERT_TRUE(jobs.complete);
  EXPECT_EQ(serial.digest, jobs.digest);
  EXPECT_EQ(serial.aggregate.encode(), jobs.aggregate.encode());
  EXPECT_EQ(fleet::fleet_report_json(spec, serial.aggregate),
            fleet::fleet_report_json(spec, jobs.aggregate));
  EXPECT_EQ(serial.devices_done, spec.devices);
}

TEST(FleetLanes, ProgressReachesTotalMonotonically) {
  const fleet::FleetSpec spec = tiny_spec();
  auto opts = fast_options();
  opts.campaign = coordinator(0);
  std::vector<std::uint64_t> done;
  std::uint64_t total = 0;
  opts.campaign->progress = [&](std::uint64_t d, std::uint64_t t) {
    done.push_back(d);
    total = t;
  };
  ASSERT_TRUE(fleet::run_fleet(spec, opts).complete);
  ASSERT_FALSE(done.empty());
  EXPECT_EQ(total, spec.devices);
  EXPECT_EQ(done.back(), spec.devices);
  for (std::size_t i = 1; i < done.size(); ++i) EXPECT_GE(done[i], done[i - 1]);
}

// --- Pinned digests ---------------------------------------------------------
// Serial digests of the usage model: the session loop, the app picker,
// the dead-app cleanup and (on the cubic fleet) the link-gated growth
// all feed them, so any behaviour change in the loop shows here.

fleet::FleetSpec pinned_spec() {
  fleet::FleetSpec spec;
  spec.devices = 48;
  spec.seed = 5;
  spec.session_s = 40;
  spec.sample_period_s = 4;
  spec.warmup_s = 2;
  spec.shard_size = 16;
  return spec;
}

TEST(FleetPin, FifoSerialDigest) {
  const fleet::FleetRunResult result = fleet::run_fleet(pinned_spec(), fast_options());
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.digest, 0xac09b1a3b3993317ULL);
}

TEST(FleetPin, CubicSerialDigest) {
  fleet::FleetSpec spec = pinned_spec();
  spec.net.cc = "cubic";
  const fleet::FleetRunResult result = fleet::run_fleet(spec, fast_options());
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.digest, 0x1b01d48166ed954aULL);
}

#if MVQOE_TEST_FORK

TEST(FleetLanes, ProcessLaneMatchesSerialByteForByte) {
  const fleet::FleetSpec spec = tiny_spec();
  const fleet::FleetRunResult serial = fleet::run_fleet(spec, fast_options());
  auto opts = fast_options();
  opts.campaign = coordinator(3);
  const fleet::FleetRunResult procs = fleet::run_fleet(spec, opts);
  ASSERT_TRUE(serial.complete);
  ASSERT_TRUE(procs.complete);
  EXPECT_EQ(serial.digest, procs.digest);
  EXPECT_EQ(serial.aggregate.encode(), procs.aggregate.encode());
  EXPECT_EQ(fleet::fleet_report_json(spec, serial.aggregate),
            fleet::fleet_report_json(spec, procs.aggregate));
}

TEST(FleetLanes, CrashAndResumeMatchesUninterruptedRun) {
  const fleet::FleetSpec spec = tiny_spec();
  const fleet::FleetRunResult reference = fleet::run_fleet(spec, fast_options());
  ASSERT_TRUE(reference.complete);

  // Phase 1: one shard dies on every attempt with the retry budget at
  // 1, so the campaign completes degraded and checkpoints the rest.
  ScratchFile state("resume");
  auto crash_opts = fast_options();
  crash_opts.campaign = coordinator(2);
  crash_opts.campaign->max_attempts = 1;
  crash_opts.campaign->state_path = state.path();
  crash_opts.campaign->hooks.abort_unit = 2;
  crash_opts.campaign->hooks.abort_attempts = 99;
  const fleet::FleetRunResult partial = fleet::run_fleet(spec, crash_opts);
  EXPECT_FALSE(partial.complete);
  EXPECT_LT(partial.devices_done, spec.devices);

  // Phase 2: the checkpoint alone reconstructs the spec; the resumed
  // run must land on the reference bytes exactly.
  const fleet::FleetSpec recovered =
      campaign::load_resume_config(state.path(), fleet::decode_fleet_config);
  EXPECT_EQ(fingerprint(recovered), fingerprint(spec));
  auto resume_opts = fast_options();
  resume_opts.campaign = coordinator(2);
  resume_opts.campaign->state_path = state.path();
  resume_opts.campaign->resume = true;
  const fleet::FleetRunResult resumed = fleet::run_fleet(recovered, resume_opts);
  ASSERT_TRUE(resumed.complete);
  EXPECT_GT(resumed.campaign.units_from_checkpoint, 0u);
  EXPECT_EQ(resumed.digest, reference.digest);
  EXPECT_EQ(resumed.aggregate.encode(), reference.aggregate.encode());
  EXPECT_EQ(fleet::fleet_report_json(spec, resumed.aggregate),
            fleet::fleet_report_json(spec, reference.aggregate));
}

// An interrupted in-process run resumes under worker processes, and a
// degraded fork-lane run resumes in process, each to the reference
// digest and aggregate bytes.
TEST(FleetLanes, CheckpointsResumeAcrossLanes) {
  const fleet::FleetSpec spec = tiny_spec();
  const fleet::FleetRunResult reference = fleet::run_fleet(spec, fast_options());
  ASSERT_TRUE(reference.complete);
  const auto resume = [&](const std::string& path, int procs) {
    auto opts = fast_options();
    opts.campaign = coordinator(procs);
    opts.campaign->state_path = path;
    opts.campaign->resume = true;
    const fleet::FleetRunResult resumed = fleet::run_fleet(spec, opts);
    ASSERT_TRUE(resumed.complete);
    EXPECT_GT(resumed.campaign.units_from_checkpoint, 0u);
    EXPECT_EQ(resumed.digest, reference.digest);
    EXPECT_EQ(resumed.aggregate.encode(), reference.aggregate.encode());
  };

  ScratchFile in_process_state("inprocess");
  static volatile std::sig_atomic_t flag = 0;
  flag = 0;
  auto interrupted = fast_options();
  interrupted.campaign = coordinator(0);
  interrupted.campaign->state_path = in_process_state.path();
  interrupted.campaign->interrupt = &flag;
  interrupted.campaign->progress = [&](std::uint64_t devices, std::uint64_t) {
    if (devices >= 3 * spec.shard_size) flag = SIGINT;
  };
  const fleet::FleetRunResult partial = fleet::run_fleet(spec, interrupted);
  ASSERT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.devices_done, 3 * spec.shard_size);
  EXPECT_EQ(partial.digest, 0u);
  resume(in_process_state.path(), 2);

  ScratchFile degraded_state("degraded");
  auto crash = fast_options();
  crash.campaign = coordinator(2);
  crash.campaign->max_attempts = 1;
  crash.campaign->state_path = degraded_state.path();
  crash.campaign->hooks.abort_unit = 2;
  crash.campaign->hooks.abort_attempts = 99;
  ASSERT_FALSE(fleet::run_fleet(spec, crash).complete);
  resume(degraded_state.path(), 0);
}

TEST(FleetLanes, ResumeRejectsDifferentFleet) {
  ScratchFile state("fingerprint");
  fleet::FleetSpec spec = tiny_spec();
  spec.devices = 20;
  auto opts = fast_options();
  opts.campaign = coordinator(1);
  opts.campaign->state_path = state.path();
  ASSERT_TRUE(fleet::run_fleet(spec, opts).complete);

  fleet::FleetSpec other = spec;
  other.seed += 1;
  auto resume_opts = fast_options();
  resume_opts.campaign = coordinator(1);
  resume_opts.campaign->state_path = state.path();
  resume_opts.campaign->resume = true;
  EXPECT_THROW(fleet::run_fleet(other, resume_opts), std::runtime_error);
}

#endif  // MVQOE_TEST_FORK

}  // namespace
