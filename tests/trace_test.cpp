#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "trace/analysis.hpp"
#include "trace/tracer.hpp"

namespace mvqoe::trace {
namespace {

using sim::msec;
using sim::sec;

ThreadMeta meta(ThreadId tid, const std::string& name, const std::string& proc = "app") {
  return ThreadMeta{tid, 100, name, proc};
}

TEST(Tracer, StateIntervalsAreClosedOnTransition) {
  Tracer tracer;
  tracer.register_thread(meta(1, "worker"));
  tracer.state_change(1, 0, ThreadState::Runnable);
  tracer.state_change(1, msec(10), ThreadState::Running);
  tracer.state_change(1, msec(30), ThreadState::Sleeping);
  tracer.finalize(msec(50));

  ASSERT_EQ(tracer.intervals().size(), 3u);
  EXPECT_EQ(tracer.intervals()[0].state, ThreadState::Runnable);
  EXPECT_EQ(tracer.intervals()[0].end - tracer.intervals()[0].begin, msec(10));
  EXPECT_EQ(tracer.intervals()[1].state, ThreadState::Running);
  EXPECT_EQ(tracer.intervals()[1].end - tracer.intervals()[1].begin, msec(20));
}

TEST(Tracer, ZeroLengthIntervalsDropped) {
  Tracer tracer;
  tracer.register_thread(meta(1, "t"));
  tracer.state_change(1, msec(5), ThreadState::Sleeping);
  tracer.state_change(1, msec(5), ThreadState::Runnable);  // same instant
  tracer.state_change(1, msec(9), ThreadState::Running);
  tracer.finalize(msec(9));
  ASSERT_EQ(tracer.intervals().size(), 1u);
  EXPECT_EQ(tracer.intervals()[0].state, ThreadState::Runnable);
}

TEST(Tracer, FinalizeIsIdempotentPerInstant) {
  Tracer tracer;
  tracer.register_thread(meta(1, "t"));
  tracer.state_change(1, 0, ThreadState::Running);
  tracer.finalize(sec(1));
  tracer.finalize(sec(1));
  EXPECT_EQ(tracer.intervals().size(), 1u);
}

TEST(Tracer, TerminatedClosesForGood) {
  Tracer tracer;
  tracer.register_thread(meta(1, "t"));
  tracer.state_change(1, 0, ThreadState::Running);
  tracer.state_change(1, sec(1), ThreadState::Terminated);
  tracer.finalize(sec(5));
  ASSERT_EQ(tracer.intervals().size(), 1u);
  EXPECT_EQ(tracer.intervals()[0].end, sec(1));
}

/// One stream of events for a tracer at either level: two threads, a
/// preemption, an instant and a counter sample, finalized at 4.5 s.
void feed(Tracer& tracer) {
  tracer.register_thread(meta(1, "victim"));
  tracer.register_thread(meta(2, "mmcqd", "kernel"));
  tracer.state_change(1, 0, ThreadState::Running);
  tracer.state_change(1, sec(1), ThreadState::RunnablePreempted, 2);
  tracer.state_change(2, sec(1), ThreadState::Running);
  tracer.state_change(2, msec(1200), ThreadState::Sleeping);
  tracer.state_change(1, msec(1200), ThreadState::Running);
  tracer.preemption({1, 2, sec(1), msec(200), msec(200)});
  tracer.instant(InstantKind::ProcessKilled, msec(300), 1, 900);
  tracer.counter("fps", msec(2100), 30.0);
  tracer.finalize(msec(4500));
}

TEST(Tracer, CountersLevelKeepsOnlyInstantsAndCounterSamples) {
  Tracer full;
  Tracer counters(TraceLevel::Counters);
  EXPECT_EQ(full.level(), TraceLevel::Full);
  feed(full);
  feed(counters);

  EXPECT_EQ(full.intervals().size(), 5u);
  EXPECT_EQ(full.preemptions().size(), 1u);
  EXPECT_TRUE(counters.intervals().empty());
  EXPECT_TRUE(counters.preemptions().empty());
  ASSERT_EQ(counters.instants().size(), 1u);
  ASSERT_EQ(counters.counters().size(), 1u);
  EXPECT_EQ(counters.instants()[0].value, 900);
  EXPECT_EQ(counters.counters()[0].value, 30.0);
  ASSERT_NE(counters.thread(2), nullptr);
  EXPECT_EQ(counters.thread(2)->name, "mmcqd");

  // A trace ends where it was finalized at either level, so per-second
  // instant and counter series come out the same length.
  EXPECT_EQ(counters.finalized_at(), msec(4500));
  EXPECT_EQ(instants_per_second(counters, InstantKind::ProcessKilled),
            instants_per_second(full, InstantKind::ProcessKilled));
  EXPECT_EQ(cumulative_instants(counters, InstantKind::ProcessKilled).size(), 5u);
  EXPECT_EQ(per_second_series(counters, "fps"), per_second_series(full, "fps"));
}

TEST(Analysis, IntervalReadersRefuseACountersTrace) {
  Tracer tracer(TraceLevel::Counters);
  feed(tracer);
  const auto expect_refused = [](const auto& read) {
    try {
      read();
      ADD_FAILURE() << "a Counters trace was read as if it were Full";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("Counters"), std::string::npos) << e.what();
    }
  };
  expect_refused([&] { state_times(tracer, {1}); });
  expect_refused([&] { top_running_threads(tracer); });
  expect_refused([&] { running_rank(tracer, "victim"); });
  expect_refused([&] { preemption_stats(tracer, {1}, "mmcqd"); });
  expect_refused([&] { state_fractions(tracer, 1); });
  expect_refused([&] { running_fraction_per_second(tracer, 2); });
}

TEST(Analysis, StateTimesSumPerState) {
  Tracer tracer;
  tracer.register_thread(meta(1, "a"));
  tracer.register_thread(meta(2, "b"));
  tracer.state_change(1, 0, ThreadState::Running);
  tracer.state_change(1, sec(2), ThreadState::Runnable);
  tracer.state_change(1, sec(3), ThreadState::RunnablePreempted, 9);
  tracer.state_change(1, sec(5), ThreadState::Running);
  tracer.state_change(2, 0, ThreadState::Running);
  tracer.finalize(sec(6));

  const auto both = state_times(tracer, {1, 2});
  EXPECT_DOUBLE_EQ(both.running, 2.0 + 1.0 + 6.0);
  EXPECT_DOUBLE_EQ(both.runnable, 1.0);
  EXPECT_DOUBLE_EQ(both.runnable_preempted, 2.0);

  const auto only_a = state_times(tracer, {1});
  EXPECT_DOUBLE_EQ(only_a.running, 3.0);
}

TEST(Analysis, StateTimesRespectsWindow) {
  Tracer tracer;
  tracer.register_thread(meta(1, "a"));
  tracer.state_change(1, 0, ThreadState::Running);
  tracer.finalize(sec(10));
  const auto windowed = state_times(tracer, {1}, sec(2), sec(5));
  EXPECT_DOUBLE_EQ(windowed.running, 3.0);
}

TEST(Analysis, TopRunningThreadsRanked) {
  Tracer tracer;
  tracer.register_thread(meta(1, "small"));
  tracer.register_thread(meta(2, "big"));
  tracer.state_change(1, 0, ThreadState::Running);
  tracer.state_change(1, sec(1), ThreadState::Sleeping);
  tracer.state_change(2, sec(1), ThreadState::Running);
  tracer.state_change(2, sec(9), ThreadState::Sleeping);
  tracer.finalize(sec(9));

  const auto top = top_running_threads(tracer);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].name, "big");
  EXPECT_EQ(top[0].rank, 1u);
  EXPECT_DOUBLE_EQ(top[0].running_seconds, 8.0);
  EXPECT_EQ(running_rank(tracer, "small"), 2u);
  EXPECT_EQ(running_rank(tracer, "absent"), 0u);
}

TEST(Analysis, PreemptionStatsFiltersByPreemptorName) {
  Tracer tracer;
  tracer.register_thread(meta(1, "victim"));
  tracer.register_thread(meta(2, "mmcqd", "kernel"));
  tracer.register_thread(meta(3, "other"));
  tracer.preemption({1, 2, sec(1), msec(10), msec(40)});
  tracer.preemption({1, 2, sec(2), msec(20), msec(60)});
  tracer.preemption({1, 3, sec(3), msec(99), msec(99)});

  const auto stats = preemption_stats(tracer, {1}, "mmcqd");
  EXPECT_EQ(stats.count, 2u);
  EXPECT_DOUBLE_EQ(stats.preemptor_run_seconds, 0.03);
  EXPECT_DOUBLE_EQ(stats.victim_wait_seconds, 0.1);
}

TEST(Analysis, StateFractionsSumToOne) {
  Tracer tracer;
  tracer.register_thread(meta(1, "kswapd", "kernel"));
  tracer.state_change(1, 0, ThreadState::Sleeping);
  tracer.state_change(1, sec(6), ThreadState::Running);
  tracer.state_change(1, sec(8), ThreadState::Runnable);
  tracer.finalize(sec(10));

  const auto fractions = state_fractions(tracer, 1);
  EXPECT_DOUBLE_EQ(fractions.at("Sleeping"), 0.6);
  EXPECT_DOUBLE_EQ(fractions.at("Running"), 0.2);
  double total = 0.0;
  for (const auto& [name, f] : fractions) total += f;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Analysis, PerSecondSeriesAveragesWithinBuckets) {
  Tracer tracer;
  tracer.counter("fps", msec(100), 60.0);
  tracer.counter("fps", msec(900), 30.0);
  tracer.counter("fps", sec(2), 24.0);
  const auto series = per_second_series(tracer, "fps", -1.0);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 45.0);
  EXPECT_DOUBLE_EQ(series[1], -1.0);  // no samples -> default
  EXPECT_DOUBLE_EQ(series[2], 24.0);
}

TEST(Analysis, InstantsPerSecondAndCumulative) {
  Tracer tracer;
  tracer.instant(InstantKind::ProcessKilled, msec(500), 1, 900);
  tracer.instant(InstantKind::ProcessKilled, msec(700), 2, 901);
  tracer.instant(InstantKind::ProcessKilled, sec(2) + msec(1), 3, 902);
  tracer.instant(InstantKind::FrameDropped, sec(1), 4, 0);

  const auto kills = instants_per_second(tracer, InstantKind::ProcessKilled);
  ASSERT_EQ(kills.size(), 3u);
  EXPECT_EQ(kills[0], 2u);
  EXPECT_EQ(kills[1], 0u);
  EXPECT_EQ(kills[2], 1u);

  const auto cumulative = cumulative_instants(tracer, InstantKind::ProcessKilled);
  EXPECT_EQ(cumulative[0], 2u);
  EXPECT_EQ(cumulative[2], 3u);
}

TEST(Analysis, RunningFractionPerSecond) {
  Tracer tracer;
  tracer.register_thread(meta(1, "lmkd"));
  // Runs 0.0-0.5s, sleeps, runs again 2.25-2.75s.
  tracer.state_change(1, 0, ThreadState::Running);
  tracer.state_change(1, msec(500), ThreadState::Sleeping);
  tracer.state_change(1, msec(2250), ThreadState::Running);
  tracer.state_change(1, msec(2750), ThreadState::Sleeping);
  tracer.finalize(sec(4));

  const auto fractions = running_fraction_per_second(tracer, 1);
  ASSERT_GE(fractions.size(), 4u);
  EXPECT_NEAR(fractions[0], 0.5, 1e-9);
  EXPECT_NEAR(fractions[1], 0.0, 1e-9);
  EXPECT_NEAR(fractions[2], 0.5, 1e-9);
  EXPECT_NEAR(fractions[3], 0.0, 1e-9);
}

TEST(Analysis, RunningFractionSpanningSecondBoundary) {
  Tracer tracer;
  tracer.register_thread(meta(1, "t"));
  tracer.state_change(1, msec(800), ThreadState::Running);
  tracer.state_change(1, msec(1400), ThreadState::Sleeping);
  tracer.finalize(sec(2));
  const auto fractions = running_fraction_per_second(tracer, 1);
  ASSERT_GE(fractions.size(), 2u);
  EXPECT_NEAR(fractions[0], 0.2, 1e-9);
  EXPECT_NEAR(fractions[1], 0.4, 1e-9);
}

TEST(Analysis, ToStringCoversAllStates) {
  EXPECT_STREQ(to_string(ThreadState::Running), "Running");
  EXPECT_STREQ(to_string(ThreadState::RunnablePreempted), "Runnable (Preempted)");
  EXPECT_STREQ(to_string(ThreadState::BlockedIo), "Blocked I/O");
}

}  // namespace
}  // namespace mvqoe::trace
