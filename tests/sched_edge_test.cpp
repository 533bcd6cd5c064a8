// Scheduler edge cases: RT work stealing, affinity interactions,
// termination while queued, heterogeneous cores, RT queue order, the
// burst-completion hand-off, and accounting totals.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "closure.hpp"
#include "sched/scheduler.hpp"
#include "trace/analysis.hpp"

namespace mvqoe::sched {
namespace {

using sim::msec;
using sim::sec;
using testkit::Closure;
using testkit::nothing;

struct Fixture {
  sim::Engine engine;
  trace::Tracer tracer;
};

SchedulerConfig cores(std::initializer_list<double> freqs) {
  SchedulerConfig config;
  for (const double f : freqs) config.cores.push_back(CoreConfig{f});
  config.context_switch_cost_refus = 0.0;
  config.migration_cost_refus = 0.0;
  return config;
}

ThreadSpec fair(const std::string& name, ProcessId pid = 100) {
  ThreadSpec spec;
  spec.name = name;
  spec.pid = pid;
  return spec;
}

ThreadSpec rt(const std::string& name, int prio) {
  ThreadSpec spec;
  spec.name = name;
  spec.pid = 1;
  spec.sched_class = SchedClass::Realtime;
  spec.priority = prio;
  return spec;
}

TEST(SchedEdge, HeterogeneousCoresPreferFasterIdleCore) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, cores({1.0, 2.0}));
  const auto tid = sched.create_thread(fair("t"));
  sim::Time done = -1;
  Closure finished{[&] { done = fx.engine.now(); }};
  sched.run_work(tid, 10000.0, &Closure::run, &finished);
  fx.engine.run();
  EXPECT_EQ(done, msec(5));  // ran on the 2 GHz core
}

TEST(SchedEdge, QueuedRtThreadStolenByIdleCore) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, cores({1.0, 1.0}));
  // Two RT threads at equal priority queue behind each other on one
  // core; when the other core frees up, the waiter migrates to it.
  const auto blocker = sched.create_thread(fair("blocker"));
  const auto rt1 = sched.create_thread(rt("rt1", 50));
  const auto rt2 = sched.create_thread(rt("rt2", 50));
  sched.run_work(blocker, 3000.0, &nothing, nullptr);  // occupies core briefly
  sim::Time rt1_done = -1;
  sim::Time rt2_done = -1;
  Closure rt1_finished{[&] { rt1_done = fx.engine.now(); }};
  Closure rt2_finished{[&] { rt2_done = fx.engine.now(); }};
  sched.run_work(rt1, 20000.0, &Closure::run, &rt1_finished);
  sched.run_work(rt2, 20000.0, &Closure::run, &rt2_finished);
  fx.engine.run();
  // Both finish around 20-23ms: they ended up on different cores rather
  // than serializing for 40ms.
  EXPECT_LE(std::max(rt1_done, rt2_done), msec(25));
}

TEST(SchedEdge, AffinityPinnedThreadWaitsForItsCore) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, cores({1.0, 1.0}));
  const auto hog = sched.create_thread(fair("hog"));
  // Pin the hog and the pinned thread to core 0.
  sched.set_affinity(hog, 0b01);
  ThreadSpec pinned_spec = fair("pinned");
  pinned_spec.affinity = 0b01;
  const auto pinned = sched.create_thread(pinned_spec);
  sched.run_work(hog, 20000.0, &nothing, nullptr);
  sim::Time done = -1;
  Closure finished{[&] { done = fx.engine.now(); }};
  sched.run_work(pinned, 1000.0, &Closure::run, &finished);
  fx.engine.run();
  // Core 1 is idle the whole time but the pinned thread may not use it:
  // it must share core 0 (timeslicing), finishing well after 1 ms.
  EXPECT_GT(done, msec(3));
}

TEST(SchedEdge, TerminateQueuedThreadNeverRuns) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, cores({1.0}));
  const auto hog = sched.create_thread(fair("hog"));
  const auto victim = sched.create_thread(fair("victim"));
  bool ran = false;
  Closure finished{[&] { ran = true; }};
  sched.run_work(hog, 50000.0, &nothing, nullptr);
  sched.run_work(victim, 1000.0, &Closure::run, &finished);
  sched.terminate(victim);  // still queued, never dispatched
  fx.engine.run();
  EXPECT_FALSE(ran);
  EXPECT_FALSE(sched.exists(victim));
}

TEST(SchedEdge, TerminateIsIdempotent) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, cores({1.0}));
  const auto tid = sched.create_thread(fair("t"));
  sched.terminate(tid);
  sched.terminate(tid);  // no-op, no crash
  EXPECT_FALSE(sched.exists(tid));
}

TEST(SchedEdge, RtPreemptionRecordAcrossMultipleVictims) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, cores({1.0, 1.0}));
  const auto a = sched.create_thread(fair("a"));
  const auto b = sched.create_thread(fair("b"));
  const auto daemon = sched.create_thread(rt("mmcqd", 50));
  sched.run_work(a, 100000.0, &nothing, nullptr);
  sched.run_work(b, 100000.0, &nothing, nullptr);
  // Two wakeups: each preempts whichever fair thread occupies the chosen
  // core at the time.
  Closure fire;
  Closure again{[&] {
    if (fx.engine.now() < msec(50)) fire.body();
  }};
  Closure nap{[&] { sched.sleep_for(daemon, msec(10), &Closure::run, &again); }};
  fire.body = [&] { sched.run_work(daemon, 500.0, &Closure::run, &nap); };
  fx.engine.schedule(msec(5), fire.body);
  fx.engine.run();
  fx.tracer.finalize(fx.engine.now());
  const auto stats_a = trace::preemption_stats(fx.tracer, {a}, "mmcqd");
  const auto stats_b = trace::preemption_stats(fx.tracer, {b}, "mmcqd");
  EXPECT_GT(stats_a.count + stats_b.count, 2u);
}

TEST(SchedEdge, CountersAccumulateCpuTime) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, cores({2.0}));
  const auto tid = sched.create_thread(fair("t"));
  sched.run_work(tid, 10000.0, &nothing, nullptr);
  fx.engine.run();
  EXPECT_NEAR(sched.counters(tid).cpu_refus_consumed, 10000.0, 1.0);
}

TEST(SchedEdge, ZeroWorkBurstCompletesImmediately) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, cores({1.0}));
  const auto tid = sched.create_thread(fair("t"));
  bool done = false;
  Closure finished{[&] { done = true; }};
  sched.run_work(tid, 0.0, &Closure::run, &finished);
  fx.engine.run();
  EXPECT_TRUE(done);
  EXPECT_LE(fx.engine.now(), msec(1));
}

// RT queue order: strict priority, FIFO within a priority level, so a
// thread queues after every queued thread of equal or higher priority.
TEST(SchedEdge, RtQueueOrdersByPriorityThenArrival) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, cores({1.0}));
  const auto hog = sched.create_thread(rt("hog", 90));
  const auto p10 = sched.create_thread(rt("p10", 10));
  const auto p50a = sched.create_thread(rt("p50a", 50));
  const auto p50b = sched.create_thread(rt("p50b", 50));
  const auto p30 = sched.create_thread(rt("p30", 30));
  // One continuation for every thread; its arg names the thread.
  struct Log {
    sim::Engine* engine;
    std::vector<std::pair<ThreadId, sim::Time>> finished;
    static void record(void* ctx, std::uint64_t tid) {
      auto* log = static_cast<Log*>(ctx);
      log->finished.emplace_back(static_cast<ThreadId>(tid), log->engine->now());
    }
  } finish_log{&fx.engine, {}};
  const std::vector<std::pair<ThreadId, sim::Time>>& finished = finish_log.finished;
  sched.run_work(hog, 10000.0, &Log::record, &finish_log, hog);
  fx.engine.schedule(msec(1), [&] {
    for (const auto tid : {p10, p50a, p50b, p30}) {
      sched.run_work(tid, 1000.0, &Log::record, &finish_log, tid);
    }
  });
  fx.engine.run();
  const std::vector<std::pair<ThreadId, sim::Time>> expected = {
      {hog, msec(10)}, {p50a, msec(11)}, {p50b, msec(12)}, {p30, msec(13)}, {p10, msec(14)}};
  EXPECT_EQ(finished, expected);
  EXPECT_TRUE(fx.tracer.preemptions().empty());
}

// A preempted RT victim requeues behind the waiters of its own priority.
TEST(SchedEdge, PreemptedRtVictimQueuesBehindEqualPriorityWaiter) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, cores({1.0}));
  const auto victim = sched.create_thread(rt("rt10", 10));
  const auto waiter = sched.create_thread(rt("rt10b", 10));
  const auto high = sched.create_thread(rt("rt90", 90));
  sim::Time victim_done = -1;
  sim::Time waiter_done = -1;
  sim::Time high_done = -1;
  Closure victim_finished{[&] { victim_done = fx.engine.now(); }};
  Closure waiter_finished{[&] { waiter_done = fx.engine.now(); }};
  Closure high_finished{[&] { high_done = fx.engine.now(); }};
  sched.run_work(victim, 10000.0, &Closure::run, &victim_finished);
  sched.run_work(waiter, 1000.0, &Closure::run, &waiter_finished);
  fx.engine.schedule(msec(2), [&] { sched.run_work(high, 1000.0, &Closure::run, &high_finished); });
  fx.engine.run();
  EXPECT_EQ(high_done, msec(3));
  EXPECT_EQ(waiter_done, msec(4));
  EXPECT_EQ(victim_done, msec(12));
  EXPECT_EQ(sched.counters(victim).preemptions_suffered, 1u);
}

// An event already queued for the completion instant resubmits the
// thread before the finished burst's callback has run: the new burst's
// callback must not displace the old one.
TEST(SchedEdge, SameInstantResubmitKeepsBothCallbacks) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, cores({1.0}));
  const auto tid = sched.create_thread(fair("t"));
  std::vector<sim::Time> first;
  std::vector<sim::Time> second;
  Closure first_finished{[&] { first.push_back(fx.engine.now()); }};
  Closure second_finished{[&] { second.push_back(fx.engine.now()); }};
  sched.run_work(tid, 10000.0, &Closure::run, &first_finished);
  fx.engine.schedule(msec(10), [&] {
    ASSERT_TRUE(sched.is_idle(tid));
    sched.run_work(tid, 2000.0, &Closure::run, &second_finished);
  });
  fx.engine.run();
  EXPECT_EQ(first, std::vector<sim::Time>{msec(10)});
  EXPECT_EQ(second, std::vector<sim::Time>{msec(12)});
}

// Terminated after its burst completed but before the callback ran: the
// callback is abandoned and the core goes straight to the next waiter.
TEST(SchedEdge, TerminateBeforeCallbackDropsItAndRunsWaiter) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, cores({1.0}));
  const auto doomed = sched.create_thread(rt("doomed", 50));
  const auto waiter = sched.create_thread(rt("waiter", 50));
  bool fired = false;
  sim::Time waiter_done = -1;
  Closure doomed_finished{[&] { fired = true; }};
  Closure waiter_finished{[&] { waiter_done = fx.engine.now(); }};
  sched.run_work(doomed, 10000.0, &Closure::run, &doomed_finished);
  sched.run_work(waiter, 1000.0, &Closure::run, &waiter_finished);
  fx.engine.schedule(msec(10), [&] {
    ASSERT_TRUE(sched.is_idle(doomed));
    sched.terminate(doomed);
  });
  fx.engine.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(sched.exists(doomed));
  EXPECT_EQ(waiter_done, msec(11));
}

// The completion callback runs before the core picks its next thread, so
// a higher-priority thread it wakes takes the free core without
// preempting the waiter that would otherwise have been dispatched.
TEST(SchedEdge, CompletionCallbackRunsBeforeCoreRedispatch) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, cores({1.0}));
  const auto first = sched.create_thread(rt("first", 50));
  const auto waiter = sched.create_thread(rt("waiter", 50));
  const auto high = sched.create_thread(rt("high", 90));
  trace::ThreadState waiter_state_in_callback = trace::ThreadState::Created;
  sim::Time waiter_done = -1;
  sim::Time high_done = -1;
  Closure high_finished{[&] { high_done = fx.engine.now(); }};
  Closure first_finished{[&] {
    waiter_state_in_callback = sched.state(waiter);
    sched.run_work(high, 1000.0, &Closure::run, &high_finished);
  }};
  Closure waiter_finished{[&] { waiter_done = fx.engine.now(); }};
  sched.run_work(first, 10000.0, &Closure::run, &first_finished);
  sched.run_work(waiter, 1000.0, &Closure::run, &waiter_finished);
  fx.engine.run();
  EXPECT_EQ(waiter_state_in_callback, trace::ThreadState::Runnable);
  EXPECT_EQ(high_done, msec(11));
  EXPECT_EQ(waiter_done, msec(12));
  EXPECT_EQ(sched.counters(waiter).preemptions_suffered, 0u);
  EXPECT_TRUE(fx.tracer.preemptions().empty());
}

TEST(SchedEdge, ManyThreadsOnManyCoresAccountingCloses) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, cores({1.0, 1.0, 1.3, 1.3}));
  double submitted = 0.0;
  for (int i = 0; i < 24; ++i) {
    const auto tid = sched.create_thread(fair("w" + std::to_string(i)));
    const double work = 1000.0 * (i + 1);
    submitted += work;
    sched.run_work(tid, work, &nothing, nullptr);
  }
  fx.engine.run();
  fx.tracer.finalize(fx.engine.now());
  // Total consumed CPU (ref-µs) equals total submitted work exactly
  // (no switch costs in this config).
  double consumed = 0.0;
  for (trace::ThreadId tid = 1; tid <= 24; ++tid) {
    consumed += sched.counters(tid).cpu_refus_consumed;
  }
  EXPECT_NEAR(consumed, submitted, 24 * 0.2);
}

}  // namespace
}  // namespace mvqoe::sched
