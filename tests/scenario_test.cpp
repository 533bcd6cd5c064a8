// Scenario/workload model tests (DESIGN.md §11): the declarative spec
// round-trips through the SCEN section (v2, with v1 back-compat, and the
// retired watchdog byte and out-of-range enum bytes refused),
// multi-session contention scenarios replay deterministically with
// per-session QoE attribution, and the component registry rejects
// section-tag collisions.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/registry.hpp"
#include "scenario/driver.hpp"
#include "scenario/spec.hpp"
#include "snapshot/replay/record.hpp"

namespace mvqoe::scenario {
namespace {

using sim::sec;

ScenarioSpec two_session_spec(int duration_s = 8, std::uint64_t seed = 31) {
  ScenarioSpec scen = single_video("fig16", 480, 30, duration_s,
                                   mem::PressureLevel::Moderate, seed);
  VideoWorkloadSpec second = video_spec(scen, 0);
  second.label = "video1";
  second.seed = contention_session_seed(seed, 1);
  scen.workloads.emplace_back(std::move(second));
  return scen;
}

TEST(ScenarioSpec, SingleVideoMapsLegacyTupleOntoOneWorkload) {
  const ScenarioSpec scen =
      single_video("fig18", 720, 60, 30, mem::PressureLevel::Critical, 9);
  EXPECT_EQ(video_count(scen), 1u);
  const VideoWorkloadSpec& video = video_spec(scen, 0);
  EXPECT_EQ(video.height, 720);
  EXPECT_EQ(video.fps, 60);
  EXPECT_EQ(video.duration_s, 30);
  EXPECT_EQ(video.seed, 9u);  // video stream follows the scenario seed
  EXPECT_EQ(platform_for(scen, video), video::PlayerPlatform::ExoPlayer);
  EXPECT_EQ(device_for(scen).name, core::nexus5().name);
}

TEST(ScenarioSpec, ScenSectionV2RoundTripsWorkloadLists) {
  ScenarioSpec scen = two_session_spec(12, 77);
  scen.organic_background_apps = 4;
  scen.world_seed = 123;
  PressureWorkloadSpec hog;
  hog.label = "hog";
  hog.target = mem::PressureLevel::Critical;
  scen.workloads.emplace_back(hog);
  BackgroundAppsWorkloadSpec apps;
  apps.label = "cohort";
  apps.count = 3;
  scen.workloads.emplace_back(apps);

  snapshot::ByteWriter w;
  save_scenario(w, scen);
  const std::string bytes = std::move(w).take();
  snapshot::ByteReader r(bytes);
  const ScenarioSpec loaded = load_scenario(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(loaded.family, scen.family);
  EXPECT_EQ(loaded.organic_background_apps, 4);
  ASSERT_TRUE(loaded.world_seed.has_value());
  EXPECT_EQ(*loaded.world_seed, 123u);
  ASSERT_EQ(loaded.workloads.size(), 4u);
  EXPECT_EQ(video_count(loaded), 2u);
  EXPECT_EQ(video_spec(loaded, 1).label, "video1");
  EXPECT_EQ(video_spec(loaded, 1).seed, video_spec(scen, 1).seed);
  const auto& loaded_hog = std::get<PressureWorkloadSpec>(loaded.workloads[2]);
  EXPECT_EQ(loaded_hog.label, "hog");
  EXPECT_EQ(loaded_hog.target, mem::PressureLevel::Critical);
  const auto& loaded_apps = std::get<BackgroundAppsWorkloadSpec>(loaded.workloads[3]);
  EXPECT_EQ(loaded_apps.count, 3);
}

std::string saved(const ScenarioSpec& scen) {
  snapshot::ByteWriter w;
  save_scenario(w, scen);
  return std::move(w).take();
}

// A v1 SCEN section: the legacy (family, height, fps, duration, state,
// seed, plan) tuple of pre-v2 blobs like tests/data/golden_fig16.blob.
std::string v1_section(std::uint8_t state, const fault::FaultPlan& plan = {}) {
  snapshot::ByteWriter w;
  w.u32(1);
  w.str("fig11");
  w.i32(360);
  w.i32(30);
  w.i32(16);
  w.u8(state);
  w.u64(41);
  save_fault_plan(w, plan);
  return std::move(w).take();
}

void expect_load_fails(const std::string& bytes, const std::string& reason) {
  snapshot::ByteReader r(bytes);
  try {
    load_scenario(r);
    FAIL() << "a SCEN with " << reason << " loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos) << e.what();
  }
}

// The v2 header still carries the byte of the retired watchdog flag:
// save writes 0 there, and a blob with 1 there fails to load by name —
// its trail would hold watchdog engine events no run schedules any more.
TEST(ScenarioSpec, RetiredWatchdogByteSetFailsToLoad) {
  const ScenarioSpec scen = single_video("fig16", 480, 30, 8, mem::PressureLevel::Low, 5);
  snapshot::ByteWriter prefix;  // version, family, state, organic, seed, world-seed flag
  prefix.u32(2);
  prefix.str(scen.family);
  prefix.u8(static_cast<std::uint8_t>(scen.state));
  prefix.i32(scen.organic_background_apps);
  prefix.u64(scen.seed);
  prefix.b(false);
  const std::size_t flag_at = std::move(prefix).take().size();

  std::string bytes = saved(scen);
  ASSERT_GT(bytes.size(), flag_at);
  EXPECT_EQ(bytes[flag_at], 0);
  {
    snapshot::ByteReader r(bytes);
    EXPECT_EQ(video_count(load_scenario(r)), 1u);
  }
  bytes[flag_at] = 1;
  expect_load_fails(bytes, "watchdog flag");
}

// Every enum byte of a SCEN section is range-checked on load: a doctored
// byte fails by field name instead of running a pressure state, player
// platform or pressure target that does not exist. A field's byte is the
// one position where a save with another value of that field differs.
TEST(ScenarioSpec, OutOfRangeEnumBytesFailToLoad) {
  ScenarioSpec scen = single_video("fig16", 480, 30, 4, mem::PressureLevel::Low, 5);
  std::get<VideoWorkloadSpec>(scen.workloads[0]).platform = video::PlayerPlatform::Chrome;
  scen.workloads.emplace_back(PressureWorkloadSpec{"hog", mem::PressureLevel::Moderate});
  const std::string base = saved(scen);
  const auto doctor = [&base](const ScenarioSpec& other, const std::string& field,
                              std::uint8_t byte) {
    const std::string changed = saved(other);
    ASSERT_EQ(changed.size(), base.size()) << field;
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (base[i] != changed[i]) at.push_back(i);
    }
    ASSERT_EQ(at.size(), 1u) << field;
    std::string bytes = base;
    bytes[at[0]] = static_cast<char>(byte);
    expect_load_fails(bytes, field + " byte " + std::to_string(byte));
  };
  ScenarioSpec other = scen;
  other.state = mem::PressureLevel::Critical;
  doctor(other, "pressure state", 7);
  other = scen;
  std::get<VideoWorkloadSpec>(other.workloads[0]).platform = video::PlayerPlatform::ExoPlayer;
  doctor(other, "video platform", 9);
  other = scen;
  std::get<PressureWorkloadSpec>(other.workloads[1]).target = mem::PressureLevel::Critical;
  doctor(other, "pressure target", 4);
  expect_load_fails(v1_section(7), "pressure state byte 7");
  snapshot::ByteReader r(base);
  EXPECT_EQ(load_scenario(r).workloads.size(), 2u);
}

// Back-compat: a v1 SCEN section must load into the equivalent
// one-workload scenario.
TEST(ScenarioSpec, ScenSectionV1StillLoads) {
  fault::FaultPlan plan;
  plan.link_outages.push_back({sec(2), sec(1)});
  const std::string bytes =
      v1_section(static_cast<std::uint8_t>(mem::PressureLevel::Moderate), plan);
  snapshot::ByteReader r(bytes);
  const ScenarioSpec loaded = load_scenario(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(loaded.family, "fig11");
  EXPECT_EQ(loaded.state, mem::PressureLevel::Moderate);
  EXPECT_EQ(loaded.seed, 41u);
  ASSERT_EQ(video_count(loaded), 1u);
  const VideoWorkloadSpec& video = video_spec(loaded, 0);
  EXPECT_EQ(video.height, 360);
  EXPECT_EQ(video.fps, 30);
  EXPECT_EQ(video.duration_s, 16);
  EXPECT_EQ(video.seed, 41u);
  ASSERT_EQ(video.fault_plan.link_outages.size(), 1u);
  EXPECT_EQ(video.fault_plan.link_outages[0].at, sec(2));
}

TEST(ScenarioSpec, SaveRejectsRuntimeOnlyKnobs) {
  ScenarioSpec custom;
  custom.family.clear();
  custom.device_override = core::nokia1();
  custom.workloads.emplace_back(VideoWorkloadSpec{});
  snapshot::ByteWriter w;
  EXPECT_THROW(save_scenario(w, custom), std::invalid_argument);

  ScenarioSpec with_asset = single_video("fig16", 480, 30, 8,
                                         mem::PressureLevel::Normal, 1);
  video_spec(with_asset, 0).asset_override = video::dubai_flow_motion(8);
  EXPECT_THROW(save_scenario(w, with_asset), std::invalid_argument);
}

// Two concurrent sessions, replayed twice: identical per-session digests
// and per-session results. This is the determinism contract extended to
// multi-session worlds.
TEST(Contention, TwoSessionsReplayDigestIdentical) {
  const ScenarioSpec scen = two_session_spec();
  auto run_once = [&] {
    ScenarioDriver driver(scen);
    driver.prepare();
    driver.start();
    while (driver.advance_slice()) {
    }
    return std::make_pair(driver.subsystem_digests(), driver.finalize());
  };
  const auto [digests_a, result_a] = run_once();
  const auto [digests_b, result_b] = run_once();

  ASSERT_EQ(digests_a.size(), digests_b.size());
  for (std::size_t i = 0; i < digests_a.size(); ++i) {
    EXPECT_EQ(digests_a[i].second, digests_b[i].second) << digests_a[i].first;
  }
  // Both video sessions (and their digests) are registry components.
  bool saw_video1 = false;
  for (const auto& [name, digest] : digests_a) saw_video1 |= name == "video1";
  EXPECT_TRUE(saw_video1);

  ASSERT_EQ(result_a.sessions.size(), 2u);
  EXPECT_EQ(result_a.sessions[0].label, "video");
  EXPECT_EQ(result_a.sessions[1].label, "video1");
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(result_a.sessions[k].result.outcome.drop_rate,
              result_b.sessions[k].result.outcome.drop_rate);
    EXPECT_EQ(result_a.sessions[k].result.outcome.mean_pss_mb,
              result_b.sessions[k].result.outcome.mean_pss_mb);
    EXPECT_GT(result_a.sessions[k].result.metrics.frames_presented +
                  result_a.sessions[k].result.metrics.frames_dropped,
              0);
  }
}

// Record/verify across the blob: a two-session scenario records with
// VID1 (and SCEN v2) sections and replays digest-identical end to end.
TEST(Contention, TwoSessionBlobRecordsAndVerifies) {
  const ScenarioSpec scen = two_session_spec();
  const snapshot::Snapshot blob = snapshot::replay::record_run(scen, {sec(4), std::nullopt});
  EXPECT_TRUE(blob.has(snapshot::tag("VIDE")));
  EXPECT_TRUE(blob.has(snapshot::tag("VID1")));

  const auto report = snapshot::replay::verify_replay(blob);
  EXPECT_TRUE(report.ok) << snapshot::replay::format_report(report);
}

TEST(Contention, SeedSchemeIsCollisionFreeAcrossSessionsAndCells) {
  // Sessions of one run get distinct streams, and so does one session
  // index across runs with different seeds.
  EXPECT_NE(contention_session_seed(7, 0), contention_session_seed(7, 1));
  EXPECT_NE(contention_session_seed(7, 0), contention_session_seed(8, 0));
}

TEST(Registry, DuplicateSectionTagFailsLoudly) {
  core::ComponentRegistry registry;
  registry.add(0, snapshot::tag("ENGN"), "engine", [](snapshot::ByteWriter&) {},
               [] { return 1ULL; });
  EXPECT_THROW(registry.add(1, snapshot::tag("ENGN"), "engine2",
                            [](snapshot::ByteWriter&) {}, [] { return 2ULL; }),
               std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(registry.has(snapshot::tag("ENGN")));
}

// More than 10 video sessions would collide in the 4-char tag space —
// the workload ctor refuses instead of silently reusing a tag.
TEST(Registry, MoreThanTenSessionsOfOneKindRejected) {
  ScenarioSpec scen = single_video("fig16", 240, 30, 4, mem::PressureLevel::Normal, 1);
  for (int k = 1; k <= 10; ++k) {
    VideoWorkloadSpec extra = video_spec(scen, 0);
    extra.label = "video" + std::to_string(k);
    scen.workloads.emplace_back(std::move(extra));
  }
  EXPECT_THROW(ScenarioDriver driver(scen), std::invalid_argument);
}

}  // namespace
}  // namespace mvqoe::scenario
