// Cross-module integration tests: full experiments exercised end to end,
// checking the invariants that hold across subsystem boundaries rather
// than any single module's behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "runner/video_batch.hpp"
#include "runner/warm_sweep.hpp"
#include "snapshot/digest.hpp"
#include "trace/analysis.hpp"
#include "video/abr_policy.hpp"

namespace mvqoe {
namespace {

using mem::PressureLevel;

scenario::ScenarioSpec quick_spec(core::DeviceProfile device, int height, int fps,
                                  PressureLevel pressure, int duration = 24) {
  auto spec = scenario::single_video("", height, fps, duration, pressure, 9);
  spec.device_override = std::move(device);
  return spec;
}

core::VideoRunResult run_one(const scenario::ScenarioSpec& spec) {
  return scenario::run_scenario(spec).sessions.at(0).result;
}

TEST(Integration, FrameAccountingIsExactWhenNotCrashed) {
  const auto result =
      run_one(quick_spec(core::nexus5(), 480, 30, PressureLevel::Normal));
  ASSERT_FALSE(result.outcome.crashed);
  EXPECT_EQ(result.metrics.frames_presented + result.metrics.frames_dropped, 24 * 30);
  // Per-second series sums must match the totals.
  std::int64_t presented = 0;
  for (const int n : result.metrics.presented_per_second) presented += n;
  EXPECT_EQ(presented, result.metrics.frames_presented);
}

TEST(Integration, PressureMonotonicallyDegradesQoE) {
  // The paper's core claim: Normal <= Moderate <= Critical in badness
  // (drops + crash). Compare a composite badness score.
  auto badness = [](const core::VideoRunResult& result) {
    return result.outcome.drop_rate + (result.outcome.crashed ? 1.0 : 0.0);
  };
  const auto normal =
      run_one(quick_spec(core::nokia1(), 720, 60, PressureLevel::Normal));
  const auto moderate =
      run_one(quick_spec(core::nokia1(), 720, 60, PressureLevel::Moderate));
  const auto critical =
      run_one(quick_spec(core::nokia1(), 720, 60, PressureLevel::Critical));
  EXPECT_LE(badness(normal), badness(moderate) + 1e-9);
  EXPECT_LE(badness(moderate), badness(critical) + 1e-9);
}

TEST(Integration, HigherRungNeverReducesDrops) {
  const auto low = run_one(quick_spec(core::nokia1(), 240, 30, PressureLevel::Normal));
  const auto high =
      run_one(quick_spec(core::nokia1(), 1080, 60, PressureLevel::Normal));
  EXPECT_LE(low.outcome.drop_rate, high.outcome.drop_rate + 1e-9);
}

TEST(Integration, CrashAlwaysLeavesKillAndCrashEvents) {
  scenario::ScenarioDriver driver(
      quick_spec(core::nokia1(), 720, 60, PressureLevel::Critical));
  const auto result = driver.run().sessions.at(0).result;
  ASSERT_TRUE(result.outcome.crashed);
  const auto& instants = driver.testbed().tracer.instants();
  bool saw_crash = false;
  bool saw_foreground_kill = false;
  for (const auto& event : instants) {
    if (event.kind == trace::InstantKind::ClientCrashed) saw_crash = true;
    if (event.kind == trace::InstantKind::ProcessKilled && event.value == 0) {
      saw_foreground_kill = true;
    }
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_foreground_kill);
}

TEST(Integration, TraceIntervalsArePerThreadContiguous) {
  scenario::ScenarioDriver driver(quick_spec(core::nexus5(), 480, 60, PressureLevel::Moderate),
                                  trace::TraceLevel::Full);
  driver.run();
  auto& tracer = driver.testbed().tracer;
  tracer.finalize(driver.testbed().engine.now());
  // For every thread, intervals must be non-overlapping and contiguous
  // in time order (the scheduler never leaves accounting gaps).
  std::map<trace::ThreadId, sim::Time> last_end;
  ASSERT_FALSE(tracer.intervals().empty());
  for (const auto& interval : tracer.intervals()) {
    ASSERT_LE(interval.begin, interval.end);
    const auto it = last_end.find(interval.tid);
    if (it != last_end.end()) {
      EXPECT_EQ(it->second, interval.begin)
          << "gap/overlap in thread " << interval.tid << " timeline";
    }
    last_end[interval.tid] = interval.end;
  }
}

TEST(Integration, OnlyOneThreadRunsPerCoreAtATime) {
  scenario::ScenarioDriver driver(
      quick_spec(core::nokia1(), 480, 60, PressureLevel::Moderate, 16), trace::TraceLevel::Full);
  driver.run();
  auto& tracer = driver.testbed().tracer;
  tracer.finalize(driver.testbed().engine.now());
  // Total Running time across all threads can never exceed cores x wall.
  ASSERT_FALSE(tracer.intervals().empty());
  double running = 0.0;
  sim::Time end = 0;
  for (const auto& interval : tracer.intervals()) {
    if (interval.state == trace::ThreadState::Running) {
      running += sim::to_seconds(interval.end - interval.begin);
    }
    end = std::max(end, interval.end);
  }
  const double capacity =
      sim::to_seconds(end) * static_cast<double>(driver.testbed().scheduler.core_count());
  EXPECT_LE(running, capacity + 1e-6);
}

TEST(Integration, MemoryAccountingInvariantHoldsAfterRun) {
  scenario::ScenarioDriver driver(
      quick_spec(core::nokia1(), 720, 60, PressureLevel::Moderate, 16));
  driver.run();
  auto& memory = driver.testbed().memory;
  // free is derived from the pools; it must stay within [0, total].
  EXPECT_GE(memory.free_pages(), 0);
  EXPECT_LE(memory.free_pages() + memory.anon_pages() + memory.file_pages(),
            memory.config().total);
  // Per-process sums must match the pools.
  mem::Pages anon = 0;
  mem::Pages file = 0;
  mem::Pages swapped = 0;
  for (const auto* process : memory.registry().all()) {
    anon += process->anon_resident;
    file += process->file_resident;
    swapped += process->anon_swapped;
    EXPECT_GE(process->anon_resident, 0);
    EXPECT_GE(process->anon_swapped, 0);
    EXPECT_GE(process->file_resident, 0);
  }
  EXPECT_EQ(anon, memory.anon_pages());
  EXPECT_EQ(swapped, memory.zram_stored());
  EXPECT_LE(file, memory.file_pages());  // dirty pages are pooled globally
}

TEST(Integration, MemoryAwareAbrOutperformsFixedUnderPressure) {
  video::MemoryAwareAbr aware(std::make_unique<video::RateBasedAbr>(60));
  auto spec = quick_spec(core::nokia1(), 720, 60, PressureLevel::Moderate, 32);
  const auto fixed = run_one(spec);
  scenario::video_spec(spec).abr = &aware;
  const auto adaptive = run_one(spec);
  const double fixed_badness = fixed.outcome.drop_rate + (fixed.outcome.crashed ? 1.0 : 0.0);
  const double adaptive_badness =
      adaptive.outcome.drop_rate + (adaptive.outcome.crashed ? 1.0 : 0.0);
  EXPECT_LT(adaptive_badness, fixed_badness + 1e-9);
  // And it must have actually adapted downward.
  ASSERT_FALSE(adaptive.metrics.rung_history.empty());
  EXPECT_LT(adaptive.metrics.rung_history.back().fps, 60);
}

TEST(Integration, SmallerFootprintPlayerDropsFewerFramesUnderPressure) {
  auto spec = quick_spec(core::nokia1(), 480, 60, PressureLevel::Moderate, 24);
  scenario::video_spec(spec).platform = video::PlayerPlatform::Firefox;
  const auto firefox = run_one(spec);
  scenario::video_spec(spec).platform = video::PlayerPlatform::ExoPlayer;
  const auto exoplayer = run_one(spec);
  const double firefox_badness =
      firefox.outcome.drop_rate + (firefox.outcome.crashed ? 1.0 : 0.0);
  const double exo_badness =
      exoplayer.outcome.drop_rate + (exoplayer.outcome.crashed ? 1.0 : 0.0);
  EXPECT_LE(exo_badness, firefox_badness + 1e-9);
}

TEST(Integration, RepeatedRunsAreIndependentAndSeedDriven) {
  auto spec = quick_spec(core::nexus5(), 720, 60, PressureLevel::Normal, 12);
  const auto aggregate_a = runner::run_video_batch(spec, 3, 1).aggregate;
  const auto aggregate_b = runner::run_video_batch(spec, 3, 1).aggregate;
  ASSERT_EQ(aggregate_a.runs(), aggregate_b.runs());
  // Same base seed -> identical aggregate.
  EXPECT_DOUBLE_EQ(aggregate_a.drop_rate().mean, aggregate_b.drop_rate().mean);
  spec.seed = 999;
  const auto aggregate_c = runner::run_video_batch(spec, 3, 1).aggregate;
  EXPECT_EQ(aggregate_c.runs(), 3u);
}

TEST(Integration, BiggerDeviceIsNeverWorse) {
  const auto nokia =
      run_one(quick_spec(core::nokia1(), 1080, 60, PressureLevel::Normal, 16));
  const auto n6p =
      run_one(quick_spec(core::nexus6p(), 1080, 60, PressureLevel::Normal, 16));
  EXPECT_LE(n6p.outcome.drop_rate, nokia.outcome.drop_rate + 1e-9);
}

TEST(Integration, NetworkIsNeverTheBottleneck) {
  // §4.1 invariant: even at the heaviest rung a device can decode
  // (1440p30 on the Nexus 6P — 1440p60 exceeds its software-decode
  // budget, as on the real phones the paper capped at 1080p), the link
  // keeps the buffer full and every segment arrives early.
  scenario::ScenarioDriver driver(
      quick_spec(core::nexus6p(), 1440, 30, PressureLevel::Normal, 24));
  const auto result = driver.run().sessions.at(0).result;
  EXPECT_FALSE(result.outcome.crashed);
  EXPECT_LT(result.outcome.drop_rate, 0.05);
  // All segments downloaded well before the video ended.
  std::size_t downloads = 0;
  for (const auto& event : driver.testbed().tracer.instants()) {
    if (event.kind == trace::InstantKind::SegmentDownloaded) ++downloads;
  }
  EXPECT_EQ(downloads, 6u);  // 24 s / 4 s segments
}

TEST(Integration, TrimSignalsReachSubscribersDuringExperiments) {
  scenario::ScenarioDriver driver(
      quick_spec(core::nokia1(), 480, 60, PressureLevel::Moderate, 16));
  driver.run();
  const auto& vm = driver.testbed().memory.vmstat();
  EXPECT_GT(vm.trim_signals[1] + vm.trim_signals[2] + vm.trim_signals[3], 0u);
}

// Pins the trace content a run feeds Table 4/5 and Fig 13: a 10 s
// Critical-state fig16 world in which mmcqd preempts the video threads.
// Intervals are hashed in (tid, begin) order, so the order in which the
// tracer records them (and finalize closes them) does not enter the pin;
// preemption records and instants are hashed in recorded order.
TEST(Integration, CriticalWorldTraceContentIsPinned) {
  scenario::ScenarioDriver driver(
      scenario::single_video("fig16", 480, 30, 10, PressureLevel::Critical, 1),
      trace::TraceLevel::Full);
  driver.run();  // ends with tracer.finalize(now)
  const auto& tracer = driver.testbed().tracer;

  std::vector<trace::StateInterval> intervals(tracer.intervals().begin(),
                                              tracer.intervals().end());
  std::sort(intervals.begin(), intervals.end(), [](const auto& a, const auto& b) {
    return std::tie(a.tid, a.begin) < std::tie(b.tid, b.begin);
  });
  snapshot::StateHash h;
  for (const auto& iv : intervals) {
    h.mix(iv.tid);
    h.mix(static_cast<std::uint64_t>(iv.begin));
    h.mix(static_cast<std::uint64_t>(iv.end));
    h.mix(static_cast<std::uint64_t>(iv.state));
    h.mix(iv.preemptor);
  }
  for (const auto& rec : tracer.preemptions()) {
    h.mix(rec.victim);
    h.mix(rec.preemptor);
    h.mix(static_cast<std::uint64_t>(rec.at));
    h.mix(static_cast<std::uint64_t>(rec.preemptor_run));
    h.mix(static_cast<std::uint64_t>(rec.victim_wait));
  }
  for (const auto& ev : tracer.instants()) {
    h.mix(static_cast<std::uint64_t>(ev.kind));
    h.mix(static_cast<std::uint64_t>(ev.at));
    h.mix(ev.tid);
    h.mix(static_cast<std::uint64_t>(ev.value));
  }

  ASSERT_GT(tracer.preemptions().size(), 0u);
  EXPECT_EQ(intervals.size(), 33985u);
  EXPECT_EQ(h.value(), 0xcebe6de15ab584c1ULL);
}

std::uint64_t outcome_digest(const qoe::RunOutcome& outcome) {
  snapshot::ByteWriter w;
  runner::encode_cell_outcome(w, runner::CellRunOutcome{true, outcome, {}});
  return snapshot::digest_bytes(w.view());
}

// The trace level only decides what is recorded. A fig09 Critical 720p60
// world built at Counters and at Full passes through the same state at
// every slice, ends with the same outcome and records the same instants
// and counter samples; only Full keeps intervals and preemption records,
// and the interval readers refuse the Counters world.
TEST(Integration, TraceLevelChangesWhatIsRecordedNotTheWorld) {
  const auto spec = scenario::single_video("fig09", 720, 60, 10, PressureLevel::Critical, 1);
  scenario::ScenarioDriver counters(spec);
  scenario::ScenarioDriver full(spec, trace::TraceLevel::Full);
  counters.start();
  full.start();
  ASSERT_EQ(counters.state_digest(), full.state_digest());
  int slices = 0;
  for (bool more = true; more; ++slices) {
    more = counters.advance_slice();
    ASSERT_EQ(full.advance_slice(), more);
    ASSERT_EQ(counters.state_digest(), full.state_digest()) << "slice " << slices;
  }
  EXPECT_GT(slices, 3);
  const scenario::ScenarioResult a = counters.finalize();
  const scenario::ScenarioResult b = full.finalize();
  ASSERT_EQ(a.sessions.size(), 1u);
  ASSERT_EQ(b.sessions.size(), 1u);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(outcome_digest(a.sessions[0].result.outcome),
            outcome_digest(b.sessions[0].result.outcome));

  const trace::Tracer& lean = counters.testbed().tracer;
  const trace::Tracer& rich = full.testbed().tracer;
  EXPECT_EQ(lean.intervals().size(), 0u);
  EXPECT_EQ(lean.preemptions().size(), 0u);
  EXPECT_GT(rich.intervals().size(), 0u);
  EXPECT_GT(rich.preemptions().size(), 0u);
  ASSERT_EQ(lean.instants().size(), rich.instants().size());
  for (std::size_t i = 0; i < lean.instants().size(); ++i) {
    const trace::InstantEvent& x = lean.instants()[i];
    const trace::InstantEvent& y = rich.instants()[i];
    EXPECT_EQ(std::tie(x.kind, x.at, x.tid, x.value), std::tie(y.kind, y.at, y.tid, y.value))
        << "instant " << i;
  }
  ASSERT_EQ(lean.counters().size(), rich.counters().size());
  for (std::size_t i = 0; i < lean.counters().size(); ++i) {
    const trace::CounterSample& x = lean.counters()[i];
    const trace::CounterSample& y = rich.counters()[i];
    EXPECT_EQ(std::tie(x.name, x.at, x.value), std::tie(y.name, y.at, y.value))
        << "counter sample " << i;
  }

  const video::VideoSession& session = *counters.video().session();
  EXPECT_THROW(trace::state_times(lean, session.client_thread_ids()), std::logic_error);
  EXPECT_THROW(trace::preemption_stats(lean, session.client_thread_ids(), "mmcqd"),
               std::logic_error);
}

}  // namespace
}  // namespace mvqoe
