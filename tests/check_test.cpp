// Tests for the src/check fuzz stack (DESIGN.md §12): per-oracle
// corruption tests (a hand-corrupted observation trips exactly the
// intended oracle and no other), shrinker convergence on a known-failing
// spec, the differential sweep of every bench scenario family under the
// full oracle suite, campaign digest determinism across reruns and
// --jobs, and repro blob round-trip / replay / localization.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/fuzz_campaign.hpp"
#include "check/generator.hpp"
#include "check/harness.hpp"
#include "check/oracles.hpp"
#include "check/shrink.hpp"
#include "scenario/driver.hpp"
#include "scenario/spec.hpp"

namespace mvqoe {
namespace {

using check::Violation;
using check::WorldObservation;
using Audit = mem::MemoryManager::KillAudit;

// ---------- Corruption tests: one corrupted field, exactly one oracle --------

/// A healthy observation consistent with the default MemoryConfig — the
/// starting point every corruption test mutates one aspect of.
WorldObservation clean_observation() {
  WorldObservation obs;
  obs.at = sim::sec(1);
  obs.offset = sim::sec(1);
  const mem::MemoryConfig config;
  obs.mem.total = config.total;
  obs.mem.kernel_reserved = config.kernel_reserved;
  obs.mem.free = mem::pages_from_mb(100);
  obs.mem.file = mem::pages_from_mb(60);
  obs.mem.available = obs.mem.free + obs.mem.file;
  obs.mem.anon = mem::pages_from_mb(300);
  obs.mem.zram_stored = mem::pages_from_mb(50);
  obs.mem.zram_capacity = config.zram_capacity;
  obs.mem.wm_min = config.watermark_min;
  obs.mem.wm_low = config.watermark_low;
  obs.mem.wm_high = config.watermark_high;
  obs.mem.kswapd_active = false;
  obs.mem.kswapd_wakeups = 5;
  obs.mem.pressure = 10.0;
  // A default-constructed charter mirrors the default MemoryConfig
  // (mem_policy_test pins that equivalence) — this IS baseline's rules.
  obs.mem.charter = mem::KillCharter{};
  return obs;
}

/// A kill audit that satisfies every LmkdOrderOracle rule under the
/// clean observation's band configuration.
Audit clean_lmkd_audit() {
  Audit kill;
  kill.at = sim::sec(1);
  kill.pid = 42;
  kill.reason = Audit::Reason::Lmkd;
  kill.oom_adj = mem::OomAdj::kCached;
  kill.min_adj = mem::OomAdj::kService;
  kill.max_killable_adj = mem::OomAdj::kCached;
  kill.pressure = 70.0;  // in (60, 95) -> background band
  kill.available = mem::pages_from_mb(100);
  kill.zram_stored = 0;
  return kill;
}

/// The corrupted observation must trip `oracle` and nothing else.
void expect_only(check::OracleSuite& suite, const WorldObservation& obs,
                 const std::string& oracle) {
  const std::vector<Violation> trips = suite.check_all(obs);
  ASSERT_EQ(trips.size(), 1u) << "expected exactly one violation for " << oracle
                              << (trips.empty() ? "" : "; first: " + trips.front().oracle + ": " +
                                                           trips.front().detail);
  EXPECT_EQ(trips.front().oracle, oracle) << trips.front().detail;
  EXPECT_EQ(trips.front().at, obs.at);
}

TEST(OracleCorruption, CleanObservationTripsNothing) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  obs.new_kills.push_back(clean_lmkd_audit());
  EXPECT_TRUE(suite.check_all(obs).empty());
}

TEST(OracleCorruption, BrokenConservationTripsOnlyMemConservation) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  obs.mem.conservation_ok = false;
  obs.mem.conservation_detail = "free pool out of balance by 3 pages";
  expect_only(suite, obs, "mem-conservation");
}

TEST(OracleCorruption, InvertedWatermarksTripOnlyWatermarks) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  obs.mem.wm_low = obs.mem.wm_min - 1;
  expect_only(suite, obs, "watermarks");
}

TEST(OracleCorruption, ZramOverCapacityTripsOnlyWatermarks) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  obs.mem.zram_stored = obs.mem.zram_capacity + 1;
  expect_only(suite, obs, "watermarks");
}

TEST(OracleCorruption, KswapdSleepingBelowMinTripsOnlyKswapd) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  obs.mem.free = obs.mem.wm_min - 1;
  obs.mem.available = obs.mem.free + obs.mem.file;
  obs.mem.kswapd_active = false;
  expect_only(suite, obs, "kswapd");
}

TEST(OracleCorruption, KswapdWakeupCounterBackwardsTripsOnlyKswapd) {
  check::OracleSuite suite;
  WorldObservation first = clean_observation();
  ASSERT_TRUE(suite.check_all(first).empty());
  WorldObservation second = clean_observation();
  second.at = sim::sec(2);
  second.mem.kswapd_wakeups = first.mem.kswapd_wakeups - 2;
  expect_only(suite, second, "kswapd");
}

TEST(OracleCorruption, KswapdActiveWithoutWakeupTripsOnlyKswapd) {
  check::OracleSuite suite;
  WorldObservation first = clean_observation();
  ASSERT_TRUE(suite.check_all(first).empty());
  WorldObservation second = clean_observation();
  second.at = sim::sec(2);
  second.mem.kswapd_active = true;  // wakeup counter unchanged
  expect_only(suite, second, "kswapd");
}

TEST(OracleCorruption, VictimNotHighestKillableTripsOnlyLmkdOrder) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  Audit kill = clean_lmkd_audit();
  kill.oom_adj = mem::OomAdj::kService;  // a cached victim existed
  kill.min_adj = mem::OomAdj::kService;
  obs.new_kills.push_back(kill);
  expect_only(suite, obs, "lmkd-order");
}

TEST(OracleCorruption, KillOutsidePressureBandTripsOnlyLmkdOrder) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  Audit kill = clean_lmkd_audit();
  kill.pressure = 30.0;  // below the kill threshold: lmkd must not fire
  obs.new_kills.push_back(kill);
  expect_only(suite, obs, "lmkd-order");
}

TEST(OracleCorruption, TwoLmkdKillsSameInstantTripOnlyLmkdOrder) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  obs.new_kills.push_back(clean_lmkd_audit());
  obs.new_kills.push_back(clean_lmkd_audit());  // cooldown forbids this
  expect_only(suite, obs, "lmkd-order");
}

TEST(OracleCorruption, OomEscalationWithBackgroundAliveTripsOnlyLmkdOrder) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  Audit kill = clean_lmkd_audit();
  kill.reason = Audit::Reason::Oom;
  kill.min_adj = mem::OomAdj::kForeground;  // escalated...
  kill.oom_adj = mem::OomAdj::kCached;      // ...past a cached victim
  kill.max_killable_adj = mem::OomAdj::kCached;
  obs.new_kills.push_back(kill);
  expect_only(suite, obs, "lmkd-order");
}

// ---------- Per-policy corruption tests: the oracle follows the charter ------
//
// The same kill audit must be judged by whatever charter the world
// publishes: legal under the policy that made the decision, a violation
// under baseline's rules. One test per way a registered policy departs
// from baseline Android.

TEST(OraclePolicyCharter, FloorOnlyVictimLegalUnderSwamTripsBaseline) {
  const mem::MemoryConfig config;
  Audit kill = clean_lmkd_audit();
  // swam scored a service victim while a cached one was alive — fine
  // under FloorOnly, a victim-selection violation under HighestAdj.
  kill.oom_adj = mem::OomAdj::kService;
  kill.min_adj = mem::OomAdj::kService;
  kill.max_killable_adj = mem::OomAdj::kCached;

  check::OracleSuite swam_suite;
  WorldObservation swam_obs = clean_observation();
  swam_obs.mem.charter = mem::kill_charter_for({"swam", {}}, config);
  swam_obs.new_kills.push_back(kill);
  EXPECT_TRUE(swam_suite.check_all(swam_obs).empty());

  check::OracleSuite baseline_suite;
  WorldObservation baseline_obs = clean_observation();
  baseline_obs.new_kills.push_back(kill);
  expect_only(baseline_suite, baseline_obs, "lmkd-order");
}

TEST(OraclePolicyCharter, SwapFullKillLegalUnderSwamTripsBaseline) {
  const mem::MemoryConfig config;
  Audit kill = clean_lmkd_audit();
  // Joint swap/kill decision: zRAM past the 0.85 fill fraction demands a
  // background kill at quiet pressure. Baseline has no such band.
  kill.pressure = 30.0;
  kill.zram_stored = static_cast<mem::Pages>(0.9 * static_cast<double>(config.zram_capacity));
  kill.min_adj = mem::OomAdj::kService;

  check::OracleSuite swam_suite;
  WorldObservation swam_obs = clean_observation();
  swam_obs.mem.charter = mem::kill_charter_for({"swam", {}}, config);
  swam_obs.new_kills.push_back(kill);
  EXPECT_TRUE(swam_suite.check_all(swam_obs).empty());

  check::OracleSuite baseline_suite;
  WorldObservation baseline_obs = clean_observation();
  baseline_obs.new_kills.push_back(kill);
  expect_only(baseline_suite, baseline_obs, "lmkd-order");
}

TEST(OraclePolicyCharter, SwamCooldownIsStricterThanBaseline) {
  const mem::MemoryConfig config;
  // Two kills 200 ms apart: legal under baseline's 150 ms cooldown,
  // forbidden under swam's 250 ms.
  Audit first = clean_lmkd_audit();
  Audit second = clean_lmkd_audit();
  second.at = first.at + sim::msec(200);

  check::OracleSuite baseline_suite;
  WorldObservation baseline_obs = clean_observation();
  baseline_obs.new_kills.push_back(first);
  baseline_obs.new_kills.push_back(second);
  EXPECT_TRUE(baseline_suite.check_all(baseline_obs).empty());

  check::OracleSuite swam_suite;
  WorldObservation swam_obs = clean_observation();
  swam_obs.mem.charter = mem::kill_charter_for({"swam", {}}, config);
  swam_obs.new_kills.push_back(first);
  swam_obs.new_kills.push_back(second);
  expect_only(swam_suite, swam_obs, "lmkd-order");
}

TEST(OraclePolicyCharter, ReservedLadderKillLegalUnderPartitionedTripsBaseline) {
  const mem::MemoryConfig config;
  Audit kill = clean_lmkd_audit();
  // Available memory above Android's cached minfree level, but inside it
  // once the 19 MB foreground reserve is spoken for: partitioned kills a
  // cached app here, baseline must not kill at all.
  kill.pressure = 30.0;
  kill.available = mem::pages_from_mb(50);
  kill.min_adj = mem::OomAdj::kCached;

  check::OracleSuite partitioned_suite;
  WorldObservation partitioned_obs = clean_observation();
  partitioned_obs.mem.charter = mem::kill_charter_for({"partitioned", {}}, config);
  partitioned_obs.new_kills.push_back(kill);
  EXPECT_TRUE(partitioned_suite.check_all(partitioned_obs).empty());

  check::OracleSuite baseline_suite;
  WorldObservation baseline_obs = clean_observation();
  baseline_obs.new_kills.push_back(kill);
  expect_only(baseline_suite, baseline_obs, "lmkd-order");
}

trace::StateInterval make_interval(trace::ThreadId tid, sim::Time begin, sim::Time end,
                                   trace::ThreadState state,
                                   trace::ThreadId preemptor = trace::kNoThread) {
  trace::StateInterval iv;
  iv.tid = tid;
  iv.begin = begin;
  iv.end = end;
  iv.state = state;
  iv.preemptor = preemptor;
  return iv;
}

TEST(OracleCorruption, ZeroLengthIntervalTripsOnlySchedState) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  // The tracer suppresses zero-length intervals; one in the log means
  // the suppression (or a synthetic producer) is broken.
  obs.new_intervals.push_back(make_interval(7, sim::msec(5), sim::msec(5),
                                            trace::ThreadState::Runnable));
  expect_only(suite, obs, "sched-state");
}

TEST(OracleCorruption, CreatedAfterHistoryTripsOnlySchedState) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  obs.new_intervals.push_back(make_interval(7, 0, sim::msec(5), trace::ThreadState::Sleeping));
  obs.new_intervals.push_back(
      make_interval(7, sim::msec(5), sim::msec(8), trace::ThreadState::Created));
  expect_only(suite, obs, "sched-state");
}

TEST(OracleCorruption, IntervalGapTripsOnlySchedState) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  obs.new_intervals.push_back(make_interval(7, 0, sim::msec(5), trace::ThreadState::Sleeping));
  // Gap: the previous interval ended at 5 ms.
  obs.new_intervals.push_back(
      make_interval(7, sim::msec(7), sim::msec(9), trace::ThreadState::Runnable));
  expect_only(suite, obs, "sched-state");
}

TEST(OracleCorruption, PreemptedWithoutPreemptorTripsOnlySchedState) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  obs.new_intervals.push_back(
      make_interval(7, 0, sim::msec(5), trace::ThreadState::RunnablePreempted));
  expect_only(suite, obs, "sched-state");
}

TEST(OracleCorruption, VruntimeBackwardsTripsOnlyVruntime) {
  check::OracleSuite suite;
  WorldObservation first = clean_observation();
  first.threads.push_back({3, trace::ThreadState::Sleeping, 10.0});
  ASSERT_TRUE(suite.check_all(first).empty());
  WorldObservation second = clean_observation();
  second.at = sim::sec(2);
  second.threads.push_back({3, trace::ThreadState::Sleeping, 5.0});
  expect_only(suite, second, "vruntime");
}

TEST(OracleCorruption, FrameSumOverTotalTripsOnlyVideoFrames) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  check::VideoObs video;
  video.label = "v";
  video.presented = 10;
  video.frame_total = 5;
  obs.videos.push_back(video);
  expect_only(suite, obs, "video-frames");
}

TEST(OracleCorruption, FrameCountersBackwardsTripOnlyVideoFrames) {
  check::OracleSuite suite;
  WorldObservation first = clean_observation();
  check::VideoObs video;
  video.label = "v";
  video.presented = 10;
  first.videos.push_back(video);
  ASSERT_TRUE(suite.check_all(first).empty());
  WorldObservation second = clean_observation();
  second.at = sim::sec(2);
  video.presented = 5;
  second.videos.push_back(video);
  expect_only(suite, second, "video-frames");
}

TEST(OracleCorruption, FinalFrameDeficitTripsOnlyVideoFrames) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  obs.final_obs = true;
  check::VideoObs video;
  video.label = "v";
  video.presented = 50;
  video.dropped = 10;
  video.frame_total = 100;  // 40 frames unaccounted for
  video.finished = true;
  obs.videos.push_back(video);
  expect_only(suite, obs, "video-frames");
}

TEST(OracleCorruption, LivelockTripwireTripsOnlyEngine) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  obs.engine.livelock_trips = 1;
  expect_only(suite, obs, "engine");
}

TEST(OracleCorruption, PendingEventLeakTripsOnlyEngine) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  obs.engine.pending_events = check::EngineOracle::kMaxPendingEvents;
  EXPECT_TRUE(suite.check_all(obs).empty());  // the bound itself is legal
  obs.engine.pending_events = check::EngineOracle::kMaxPendingEvents + 1;
  expect_only(suite, obs, "engine");
}

// The same bound through WorldObserver on a real world: a started fig16
// session whose engine also holds kMaxPendingEvents + 1 far-future no-op
// events trips the engine oracle and nothing else.
TEST(OracleObservation, PendingEventLeakInLiveWorldTripsOnlyEngine) {
  scenario::ScenarioDriver driver(
      scenario::single_video("fig16", 240, 30, 4, mem::PressureLevel::Normal, 1),
      trace::TraceLevel::Full);
  driver.prepare();
  driver.start();
  sim::Engine& engine = driver.testbed().engine;
  const std::size_t own = engine.pending_events();
  for (std::size_t i = 0; i <= check::EngineOracle::kMaxPendingEvents; ++i) {
    engine.schedule_flat_at(sim::hours(1000), [](void*, std::uint64_t) {}, nullptr);
  }
  check::WorldObserver observer;
  const WorldObservation obs = observer.observe(driver);
  EXPECT_EQ(obs.engine.pending_events, own + check::EngineOracle::kMaxPendingEvents + 1);
  check::OracleSuite suite;
  expect_only(suite, obs, "engine");
}

// The sched-state oracle reads tracer intervals, so the observer refuses
// a world that records none instead of letting that oracle pass blind.
TEST(OracleObservation, WorldObserverRefusesACountersWorld) {
  scenario::ScenarioDriver driver(
      scenario::single_video("fig16", 240, 30, 4, mem::PressureLevel::Normal, 1));
  driver.start();
  ASSERT_EQ(driver.testbed().tracer.level(), trace::TraceLevel::Counters);
  check::WorldObserver observer;
  EXPECT_THROW(observer.observe(driver), std::logic_error);
}

// ---------- Net oracle corruption (cc-mode link invariants) ------------------

/// A healthy cc-mode network observation: one half-done flow, bytes
/// conserved, backlog inside the droptail bound, sane controller state.
void add_clean_net(WorldObservation& obs) {
  obs.net.cc_mode = true;
  obs.net.cc = "cubic";
  obs.net.retired_delivered = 1'000'000;
  obs.net.bytes_delivered = 1'500'000;
  obs.net.backlog_bytes = 30'000;
  obs.net.queue_capacity_bytes = 64 * 1024;
  check::NetFlowObs flow;
  flow.id = 7;
  flow.total_bytes = 2'000'000;
  flow.delivered_bytes = 500'000;
  flow.inflight_bytes = 30'000;
  flow.cwnd_bytes = 45'000.0;
  flow.pacing_bytes_per_usec = 10.0;
  obs.net.flows.push_back(flow);
}

TEST(OracleCorruption, CleanNetObservationTripsNothing) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  add_clean_net(obs);
  EXPECT_TRUE(suite.check_all(obs).empty());
}

TEST(OracleCorruption, LostNetBytesTripOnlyNetConservation) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  add_clean_net(obs);
  obs.net.retired_delivered -= 1;  // a byte vanished between flows and the link
  expect_only(suite, obs, "net-conservation");
}

TEST(OracleCorruption, BacklogOverCapacityTripsOnlyNetQueue) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  add_clean_net(obs);
  obs.net.backlog_bytes = obs.net.queue_capacity_bytes + 1;  // droptail must have dropped
  expect_only(suite, obs, "net-queue");
}

TEST(OracleCorruption, CwndBelowOnePacketTripsOnlyNetCwnd) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  add_clean_net(obs);
  obs.net.flows.front().cwnd_bytes = 0.0;  // the controller clamp failed
  expect_only(suite, obs, "net-cwnd");
}

TEST(OracleCorruption, NegativePacingRateTripsOnlyNetCwnd) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  add_clean_net(obs);
  obs.net.flows.front().pacing_bytes_per_usec = -1.0;
  expect_only(suite, obs, "net-cwnd");
}

TEST(OracleCorruption, DeliveredOverTotalTripsOnlyNetProgress) {
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  add_clean_net(obs);
  obs.net.flows.front().delivered_bytes = obs.net.flows.front().total_bytes + 1;
  // Keep conservation intact so only the progress oracle can trip.
  obs.net.bytes_delivered = obs.net.retired_delivered + obs.net.flows.front().delivered_bytes;
  expect_only(suite, obs, "net-progress");
}

TEST(OracleCorruption, DeliveredBackwardsTripsOnlyNetProgress) {
  check::OracleSuite suite;
  WorldObservation first = clean_observation();
  add_clean_net(first);
  ASSERT_TRUE(suite.check_all(first).empty());
  WorldObservation second = clean_observation();
  add_clean_net(second);
  second.net.flows.front().delivered_bytes -= 1;  // un-delivered a byte
  second.net.bytes_delivered = second.net.retired_delivered +
                               second.net.flows.front().delivered_bytes;
  expect_only(suite, second, "net-progress");
}

TEST(OracleCorruption, FifoModeNetOraclesAreInert) {
  // The same corrupted numbers with cc_mode unset must trip nothing: the
  // serial fifo link has no flows for the net oracles to reason about.
  check::OracleSuite suite;
  WorldObservation obs = clean_observation();
  add_clean_net(obs);
  obs.net.cc_mode = false;
  obs.net.retired_delivered -= 1;
  obs.net.backlog_bytes = obs.net.queue_capacity_bytes + 1;
  obs.net.flows.front().cwnd_bytes = -5.0;
  EXPECT_TRUE(suite.check_all(obs).empty());
}

TEST(OracleSuiteShape, CanonicalNamesInOrder) {
  const std::vector<std::string> expected = {
      "engine",      "mem-conservation", "watermarks", "kswapd",
      "lmkd-order",  "sched-state",      "vruntime",   "video-frames",
      "net-conservation", "net-queue",   "net-cwnd",   "net-progress"};
  EXPECT_EQ(check::oracle_names(), expected);
}

// ---------- Differential: every bench scenario family runs clean -------------

class FamilyDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(FamilyDifferential, ShortHorizonCleanUnderFullSuite) {
  const scenario::ScenarioSpec scen =
      scenario::single_video(GetParam(), 360, 30, 4, mem::PressureLevel::Normal, 7);
  const check::RunReport report = check::check_scenario(scen);
  ASSERT_TRUE(report.ok) << report.violation->oracle << ": " << report.violation->detail;
  EXPECT_GT(report.slices, 0);
  EXPECT_NE(report.final_digest, 0u);
}

INSTANTIATE_TEST_SUITE_P(Families, FamilyDifferential,
                         ::testing::ValuesIn(scenario::scenario_families()));

// ---------- Harness: perturbation, shrinking, repro, localization ------------

/// The known-failing spec: a perturbed multi-workload fig16 world. The
/// RNG bit flip at +2 s makes the primary run diverge from the clean
/// rerun, tripping the meta-determinism oracle.
scenario::ScenarioSpec failing_spec() {
  scenario::ScenarioSpec scen;
  scen.family = "fig16";
  scen.state = mem::PressureLevel::Moderate;
  scen.seed = 42;
  scenario::VideoWorkloadSpec a;
  a.label = "video0";
  a.height = 360;
  a.fps = 30;
  a.duration_s = 4;
  a.seed = 101;
  scenario::VideoWorkloadSpec b = a;
  b.label = "video1";
  b.seed = 202;
  scen.workloads.push_back(a);
  scen.workloads.push_back(b);
  scen.workloads.push_back(scenario::BackgroundAppsWorkloadSpec{"background", 4});
  scen.workloads.push_back(scenario::PressureWorkloadSpec{"pressure", mem::PressureLevel::Moderate});
  return scen;
}

check::CheckOptions perturbed_options() {
  check::CheckOptions opts;
  opts.perturb_at = sim::sec(2);
  return opts;
}

TEST(Harness, PerturbationTripsMetaDeterminism) {
  const check::RunReport report = check::check_scenario(failing_spec(), perturbed_options());
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.violation->oracle, "meta-determinism") << report.violation->detail;
}

TEST(Harness, UnperturbedSpecRunsClean) {
  const check::RunReport report = check::check_scenario(failing_spec());
  ASSERT_TRUE(report.ok) << report.violation->oracle << ": " << report.violation->detail;
}

TEST(Shrinker, ConvergesToMinimalSpecWithSameOracle) {
  const scenario::ScenarioSpec spec = failing_spec();
  const check::RunReport original = check::check_scenario(spec, perturbed_options());
  ASSERT_FALSE(original.ok);

  check::ShrinkOptions opts;
  opts.check = perturbed_options();
  opts.perturb_at = sim::sec(2);
  const check::ShrinkResult shrunk = check::shrink(spec, *original.violation, opts);

  EXPECT_GE(shrunk.accepted, 1);
  EXPECT_LT(shrunk.minimal.workloads.size(), spec.workloads.size());
  EXPECT_GE(shrunk.minimal.workloads.size(), 1u);
  EXPECT_EQ(shrunk.violation.oracle, "meta-determinism");

  // The minimal spec reproduces the same failure on a fresh run.
  const check::RunReport replay = check::check_scenario(shrunk.minimal, perturbed_options());
  ASSERT_FALSE(replay.ok);
  EXPECT_EQ(replay.violation->oracle, "meta-determinism");
}

TEST(Localization, NamesFirstDivergingEventOfPerturbedRun) {
  const scenario::ScenarioSpec spec = failing_spec();
  const check::RunReport report = check::check_scenario(spec, perturbed_options());
  ASSERT_FALSE(report.ok);
  const check::Localization loc =
      check::localize_violation(spec, *report.violation, sim::sec(2));
  ASSERT_TRUE(loc.located) << loc.detail;
  EXPECT_FALSE(loc.subsystem.empty());
  EXPECT_GT(loc.probes, 0);
  // The bit flip lands at +2 s; the first diverging event cannot precede it.
  EXPECT_GE(loc.event_time, sim::sec(2));
}

// The harness tests above check oracle names only. These pin the exact
// violation and localization of the perturbed failing_spec(), so that
// moving the bit flip by one slice or one event fails.
TEST(ReplayPin, PerturbedCheckViolationIsPinned) {
  const check::RunReport report = check::check_scenario(failing_spec(), perturbed_options());
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.violation->oracle, "meta-determinism");
  EXPECT_EQ(report.violation->offset, sim::sec(2));
  EXPECT_EQ(report.violation->detail,
            "re-run MISMATCH at checkpoint 2 (t=+2s): expected 5e68c34ba2aac69, got "
            "f7f491e6fecdbf6");
}

TEST(ReplayPin, PerturbedLocalizationIsPinned) {
  const scenario::ScenarioSpec spec = failing_spec();
  const check::RunReport report = check::check_scenario(spec, perturbed_options());
  ASSERT_FALSE(report.ok);
  const check::Localization loc =
      check::localize_violation(spec, *report.violation, sim::sec(2));
  ASSERT_TRUE(loc.located) << loc.detail;
  EXPECT_EQ(loc.event_time, 309'400'655);
  EXPECT_EQ(loc.event_seq, 131857u);
  EXPECT_EQ(loc.subsystem, "sysact");
}

TEST(Repro, BlobRoundTripsAndReplays) {
  check::Repro repro;
  repro.spec = failing_spec();
  repro.run_seed = 42;
  repro.oracle = "meta-determinism";
  repro.detail = "digest trail diverged";
  repro.offset = sim::sec(2);
  repro.perturb_at = sim::sec(2);

  const snapshot::Snapshot blob = check::save_repro(repro);
  const snapshot::Snapshot reparsed = snapshot::Snapshot::parse(blob.serialize());
  const check::Repro loaded = check::load_repro(reparsed);
  EXPECT_EQ(loaded.run_seed, repro.run_seed);
  EXPECT_EQ(loaded.oracle, repro.oracle);
  EXPECT_EQ(loaded.detail, repro.detail);
  EXPECT_EQ(loaded.offset, repro.offset);
  ASSERT_TRUE(loaded.perturb_at.has_value());
  EXPECT_EQ(*loaded.perturb_at, sim::sec(2));
  EXPECT_EQ(loaded.spec.family, repro.spec.family);
  EXPECT_EQ(loaded.spec.workloads.size(), repro.spec.workloads.size());

  const check::ReproReport replay = check::replay_repro(loaded);
  EXPECT_TRUE(replay.reproduced)
      << (replay.violation ? replay.violation->oracle + ": " + replay.violation->detail
                           : std::string("ran clean"));
}

TEST(Repro, CommittedMinimizedBlobStillReproduces) {
  const snapshot::Snapshot blob =
      snapshot::Snapshot::read_file(MVQOE_TEST_DATA_DIR "/repros/meta-perturb.mvqs");
  const check::Repro repro = check::load_repro(blob);
  EXPECT_EQ(repro.oracle, "meta-determinism");
  const check::ReproReport replay = check::replay_repro(repro);
  EXPECT_TRUE(replay.reproduced)
      << (replay.violation ? replay.violation->oracle + ": " + replay.violation->detail
                           : std::string("ran clean"));
}

// ---------- Campaign: digest determinism and the seeded failure demo ---------

check::FuzzOptions small_campaign() {
  check::FuzzOptions opts;
  opts.seed = 3;
  opts.runs = 6;
  return opts;
}

/// The serial reference: every run through execute_fuzz_run, in order.
check::FuzzSummary serial_fuzz(const check::FuzzOptions& opts) {
  std::vector<check::RunRecord> records;
  for (int i = 0; i < opts.runs; ++i) records.push_back(check::execute_fuzz_run(opts, i));
  return check::summarize_records(opts, records);
}

/// The campaign's in-process lane on `jobs` threads (mvqoe_fuzz without
/// --procs, --state or --resume).
check::FuzzSummary in_process_fuzz(const check::FuzzOptions& opts, int jobs) {
  campaign::CampaignOptions lane;
  lane.procs = 0;
  lane.jobs = jobs;
  return campaign::run_fuzz_campaign(opts, lane).summary;
}

TEST(Fuzz, SummaryDigestIdenticalAcrossReruns) {
  const check::FuzzSummary a = in_process_fuzz(small_campaign(), 1);
  const check::FuzzSummary b = in_process_fuzz(small_campaign(), 1);
  EXPECT_EQ(a.runs, 6);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(Fuzz, SummaryDigestInvariantToJobs) {
  const check::FuzzSummary serial = serial_fuzz(small_campaign());
  const check::FuzzSummary parallel = in_process_fuzz(small_campaign(), 4);
  EXPECT_EQ(serial.failed, parallel.failed);
  EXPECT_EQ(serial.digest, parallel.digest);
}

TEST(Fuzz, SeededPerturbationIsCaughtAndAttributed) {
  check::FuzzOptions opts = small_campaign();
  opts.runs = 4;
  opts.perturb_run = 2;
  opts.perturb_offset = sim::sec(2);
  const check::FuzzSummary summary = in_process_fuzz(opts, 1);
  ASSERT_EQ(summary.failed, 1);
  ASSERT_EQ(summary.failures.size(), 1u);
  EXPECT_EQ(summary.failures.front().run, 2);
  EXPECT_EQ(summary.failures.front().violation.oracle, "meta-determinism");
}

}  // namespace
}  // namespace mvqoe
