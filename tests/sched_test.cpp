#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "sched/scheduler.hpp"
#include "trace/analysis.hpp"

// Every plain operator new in this binary is counted, so a test can
// bound the heap allocations of a stretch of simulation. All non-aligned
// forms are replaced together so each allocation is freed by its own
// family (sanitizer builds check that pairing).
namespace {
std::uint64_t g_heap_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_heap_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
// Out of line so the compiler does not see free() paired with new.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }

namespace mvqoe::sched {
namespace {

using sim::msec;
using sim::sec;
using sim::usec;
using trace::ThreadState;

struct Fixture {
  sim::Engine engine;
  trace::Tracer tracer;
};

SchedulerConfig single_core(double freq = 1.0) {
  SchedulerConfig config;
  config.cores = {CoreConfig{freq}};
  config.context_switch_cost_refus = 0.0;
  config.migration_cost_refus = 0.0;
  return config;
}

SchedulerConfig quad_core(double freq = 1.0) {
  SchedulerConfig config;
  config.cores = std::vector<CoreConfig>(4, CoreConfig{freq});
  config.context_switch_cost_refus = 0.0;
  config.migration_cost_refus = 0.0;
  return config;
}

ThreadSpec fair_spec(const std::string& name, ProcessId pid = 100) {
  ThreadSpec spec;
  spec.name = name;
  spec.pid = pid;
  spec.process_name = "proc" + std::to_string(pid);
  return spec;
}

ThreadSpec rt_spec(const std::string& name, int prio, ProcessId pid = 1) {
  ThreadSpec spec;
  spec.name = name;
  spec.pid = pid;
  spec.process_name = "kernel";
  spec.sched_class = SchedClass::Realtime;
  spec.priority = prio;
  return spec;
}

TEST(Scheduler, SingleBurstCompletesAfterWorkOverFrequency) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, single_core(2.0));
  const ThreadId tid = sched.create_thread(fair_spec("t"));
  sim::Time done_at = -1;
  sched.run_work(tid, 10000.0, [&] { done_at = fx.engine.now(); });  // 10ms ref work
  fx.engine.run();
  EXPECT_EQ(done_at, usec(5000));  // 2 GHz core: half the reference time
  EXPECT_TRUE(sched.is_idle(tid));
}

TEST(Scheduler, SlowCoreTakesProportionallyLonger) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, single_core(0.5));
  const ThreadId tid = sched.create_thread(fair_spec("t"));
  sim::Time done_at = -1;
  sched.run_work(tid, 10000.0, [&] { done_at = fx.engine.now(); });
  fx.engine.run();
  EXPECT_EQ(done_at, usec(20000));
}

TEST(Scheduler, TwoFairThreadsShareOneCoreEqually) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, single_core(1.0));
  const ThreadId a = sched.create_thread(fair_spec("a"));
  const ThreadId b = sched.create_thread(fair_spec("b"));
  sim::Time a_done = -1;
  sim::Time b_done = -1;
  sched.run_work(a, 50000.0, [&] { a_done = fx.engine.now(); });
  sched.run_work(b, 50000.0, [&] { b_done = fx.engine.now(); });
  fx.engine.run();
  // Total 100ms of work on one core: both finish near the end, having
  // interleaved; neither can finish before its own 50ms of CPU.
  EXPECT_GE(a_done, msec(50));
  EXPECT_GE(b_done, msec(50));
  EXPECT_LE(std::max(a_done, b_done), msec(101));
  // The one finishing last must finish at ~100ms (work conservation).
  EXPECT_GE(std::max(a_done, b_done), msec(99));
}

TEST(Scheduler, FairShareIsProportionalOverWindow) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, single_core(1.0));
  const ThreadId a = sched.create_thread(fair_spec("a"));
  const ThreadId b = sched.create_thread(fair_spec("b"));
  // Both threads continuously re-submit work: measure running time split.
  std::function<void()> loop_a = [&] { sched.run_work(a, 3000.0, loop_a); };
  std::function<void()> loop_b = [&] { sched.run_work(b, 3000.0, loop_b); };
  loop_a();
  loop_b();
  fx.engine.run_until(sec(2));
  fx.tracer.finalize(fx.engine.now());
  const auto ta = trace::state_times(fx.tracer, {a});
  const auto tb = trace::state_times(fx.tracer, {b});
  EXPECT_NEAR(ta.running, 1.0, 0.05);
  EXPECT_NEAR(tb.running, 1.0, 0.05);
}

TEST(Scheduler, RtPreemptsFairImmediately) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, single_core(1.0));
  const ThreadId fair = sched.create_thread(fair_spec("fair"));
  const ThreadId rt = sched.create_thread(rt_spec("mmcqd", 50));
  sim::Time rt_done = -1;
  sched.run_work(fair, 100000.0, [] {});
  fx.engine.schedule(msec(10), [&] {
    sched.run_work(rt, 1000.0, [&] { rt_done = fx.engine.now(); });
  });
  fx.engine.run();
  // RT thread finishes 1ms after waking at 10ms, despite the fair hog.
  EXPECT_EQ(rt_done, msec(11));
  EXPECT_EQ(sched.counters(fair).preemptions_suffered, 1u);
}

TEST(Scheduler, PreemptionRecordHasRunAndWaitTimes) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, single_core(1.0));
  const ThreadId fair = sched.create_thread(fair_spec("victim"));
  const ThreadId rt = sched.create_thread(rt_spec("mmcqd", 50));
  sched.run_work(fair, 100000.0, [] {});
  fx.engine.schedule(msec(10), [&] { sched.run_work(rt, 2000.0, [] {}); });
  fx.engine.run();
  fx.tracer.finalize(fx.engine.now());

  ASSERT_EQ(fx.tracer.preemptions().size(), 1u);
  const auto& rec = fx.tracer.preemptions()[0];
  EXPECT_EQ(rec.victim, fair);
  EXPECT_EQ(rec.preemptor, rt);
  EXPECT_EQ(rec.at, msec(10));
  EXPECT_EQ(rec.preemptor_run, msec(2));
  EXPECT_EQ(rec.victim_wait, msec(2));

  const auto stats = trace::preemption_stats(fx.tracer, {fair}, "mmcqd");
  EXPECT_EQ(stats.count, 1u);
  EXPECT_DOUBLE_EQ(stats.preemptor_run_seconds, 0.002);
}

TEST(Scheduler, HigherRtPriorityPreemptsLowerRt) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, single_core(1.0));
  const ThreadId low = sched.create_thread(rt_spec("low", 10));
  const ThreadId high = sched.create_thread(rt_spec("high", 90));
  sim::Time low_done = -1;
  sim::Time high_done = -1;
  sched.run_work(low, 10000.0, [&] { low_done = fx.engine.now(); });
  fx.engine.schedule(msec(2), [&] {
    sched.run_work(high, 1000.0, [&] { high_done = fx.engine.now(); });
  });
  fx.engine.run();
  EXPECT_EQ(high_done, msec(3));
  EXPECT_EQ(low_done, msec(11));
}

TEST(Scheduler, EqualRtPriorityDoesNotPreempt) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, single_core(1.0));
  const ThreadId first = sched.create_thread(rt_spec("first", 50));
  const ThreadId second = sched.create_thread(rt_spec("second", 50));
  sim::Time first_done = -1;
  sim::Time second_done = -1;
  sched.run_work(first, 10000.0, [&] { first_done = fx.engine.now(); });
  fx.engine.schedule(msec(2), [&] {
    sched.run_work(second, 1000.0, [&] { second_done = fx.engine.now(); });
  });
  fx.engine.run();
  EXPECT_EQ(first_done, msec(10));  // runs to completion
  EXPECT_EQ(second_done, msec(11));
}

TEST(Scheduler, IdleCoresPickUpWork) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, quad_core(1.0));
  std::vector<sim::Time> done(4, -1);
  std::vector<ThreadId> tids;
  for (int i = 0; i < 4; ++i) tids.push_back(sched.create_thread(fair_spec("t" + std::to_string(i))));
  for (int i = 0; i < 4; ++i) {
    sched.run_work(tids[static_cast<std::size_t>(i)], 10000.0,
                   [&, i] { done[static_cast<std::size_t>(i)] = fx.engine.now(); });
  }
  fx.engine.run();
  for (const sim::Time t : done) EXPECT_EQ(t, msec(10));  // fully parallel
}

TEST(Scheduler, WorkStealingDrainsLongQueues) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, quad_core(1.0));
  // 8 threads, 4 cores: total 80ms of work should take ~20ms wall.
  std::vector<sim::Time> done;
  std::vector<ThreadId> tids;
  done.resize(8, -1);
  for (int i = 0; i < 8; ++i) tids.push_back(sched.create_thread(fair_spec("t" + std::to_string(i))));
  for (int i = 0; i < 8; ++i) {
    sched.run_work(tids[static_cast<std::size_t>(i)], 10000.0,
                   [&done, &fx, i] { done[static_cast<std::size_t>(i)] = fx.engine.now(); });
  }
  fx.engine.run();
  for (const sim::Time t : done) {
    EXPECT_GE(t, msec(10));
    EXPECT_LE(t, msec(21));
  }
}

TEST(Scheduler, AffinityRestrictsPlacement) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, quad_core(1.0));
  ThreadSpec spec = fair_spec("pinned");
  spec.affinity = 0b0100;  // core 2 only
  const ThreadId tid = sched.create_thread(spec);
  bool checked = false;
  sched.run_work(tid, 10000.0, [] {});
  fx.engine.schedule(msec(1), [&] {
    ASSERT_TRUE(sched.running_core(tid).has_value());
    EXPECT_EQ(sched.running_core(tid).value(), 2u);
    checked = true;
  });
  fx.engine.run();
  EXPECT_TRUE(checked);
}

TEST(Scheduler, NiceWeightSkewsCpuShare) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, single_core(1.0));
  ThreadSpec heavy = fair_spec("heavy");
  heavy.priority = -5;  // lower nice -> heavier weight
  const ThreadId a = sched.create_thread(heavy);
  const ThreadId b = sched.create_thread(fair_spec("light"));
  std::function<void()> loop_a = [&] { sched.run_work(a, 3000.0, loop_a); };
  std::function<void()> loop_b = [&] { sched.run_work(b, 3000.0, loop_b); };
  loop_a();
  loop_b();
  fx.engine.run_until(sec(3));
  fx.tracer.finalize(fx.engine.now());
  const auto ta = trace::state_times(fx.tracer, {a});
  const auto tb = trace::state_times(fx.tracer, {b});
  EXPECT_GT(ta.running, tb.running * 1.5);
}

TEST(Scheduler, TerminateRunningThreadFreesCore) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, single_core(1.0));
  const ThreadId hog = sched.create_thread(fair_spec("hog"));
  const ThreadId waiter = sched.create_thread(fair_spec("waiter"));
  bool hog_completed = false;
  sim::Time waiter_done = -1;
  sched.run_work(hog, 1000000.0, [&] { hog_completed = true; });
  fx.engine.schedule(msec(1), [&] {
    sched.run_work(waiter, 1000.0, [&] { waiter_done = fx.engine.now(); });
  });
  fx.engine.schedule(msec(2), [&] { sched.terminate(hog); });
  fx.engine.run();
  EXPECT_FALSE(hog_completed);
  EXPECT_FALSE(sched.exists(hog));
  EXPECT_EQ(waiter_done, msec(3));
}

TEST(Scheduler, TerminateProcessKillsAllItsThreads) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, quad_core(1.0));
  const ThreadId a = sched.create_thread(fair_spec("a", 200));
  const ThreadId b = sched.create_thread(fair_spec("b", 200));
  const ThreadId other = sched.create_thread(fair_spec("c", 300));
  sched.run_work(a, 50000.0, [] {});
  sched.run_work(b, 50000.0, [] {});
  sched.run_work(other, 5000.0, [] {});
  fx.engine.schedule(msec(1), [&] { sched.terminate_process(200); });
  fx.engine.run();
  EXPECT_FALSE(sched.exists(a));
  EXPECT_FALSE(sched.exists(b));
  EXPECT_TRUE(sched.exists(other));
}

TEST(Scheduler, SleepForWakesAtRequestedTime) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, single_core(1.0));
  const ThreadId tid = sched.create_thread(fair_spec("sleeper"));
  sim::Time woke = -1;
  sched.sleep_for(tid, msec(25), [&] { woke = fx.engine.now(); });
  fx.engine.run();
  EXPECT_EQ(woke, msec(25));
}

TEST(Scheduler, SleepWakeSkippedIfThreadTerminated) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, single_core(1.0));
  const ThreadId tid = sched.create_thread(fair_spec("sleeper"));
  bool woke = false;
  sched.sleep_for(tid, msec(25), [&] { woke = true; });
  fx.engine.schedule(msec(1), [&] { sched.terminate(tid); });
  fx.engine.run();
  EXPECT_FALSE(woke);
}

TEST(Scheduler, BlockedIoStateIsAccounted) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, single_core(1.0));
  const ThreadId tid = sched.create_thread(fair_spec("io"));
  sched.run_work(tid, 1000.0, [&] {
    sched.mark_blocked_io(tid);
    fx.engine.schedule(msec(10), [&] { sched.run_work(tid, 1000.0, [] {}); });
  });
  fx.engine.run();
  fx.tracer.finalize(fx.engine.now());
  const auto times = trace::state_times(fx.tracer, {tid});
  EXPECT_NEAR(times.blocked_io, 0.010, 1e-6);
  EXPECT_NEAR(times.running, 0.002, 1e-6);
}

TEST(Scheduler, ContextSwitchCostSlowsContendedWorkload) {
  Fixture fx;
  SchedulerConfig config = single_core(1.0);
  config.context_switch_cost_refus = 500.0;  // exaggerated for visibility
  Scheduler sched(fx.engine, fx.tracer, config);
  const ThreadId a = sched.create_thread(fair_spec("a"));
  const ThreadId b = sched.create_thread(fair_spec("b"));
  sim::Time last_done = -1;
  auto done = [&] { last_done = fx.engine.now(); };
  sched.run_work(a, 30000.0, done);
  sched.run_work(b, 30000.0, done);
  fx.engine.run();
  EXPECT_GT(last_done, msec(61));  // 60ms of real work + switching overhead
}

TEST(Scheduler, MigrationsAreCounted) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, quad_core(1.0));
  const ThreadId tid = sched.create_thread(fair_spec("wanderer"));
  // Load all cores with hogs, then repeatedly wake the wanderer; it will
  // be placed on whichever core frees up, migrating along the way.
  std::vector<ThreadId> hogs;
  for (int i = 0; i < 4; ++i) {
    const ThreadId hog = sched.create_thread(fair_spec("hog" + std::to_string(i), 300));
    sched.run_work(hog, 500000.0, [] {});
    hogs.push_back(hog);
  }
  std::function<void()> wander = [&] {
    sched.run_work(tid, 2000.0, [&] { sched.sleep_for(tid, msec(3), wander); });
  };
  wander();
  fx.engine.run_until(sec(1));
  EXPECT_GT(sched.counters(tid).context_switches, 10u);
}

TEST(Scheduler, RunnableStateRecordedWhileWaiting) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, single_core(1.0));
  const ThreadId hog = sched.create_thread(fair_spec("hog"));
  const ThreadId waiter = sched.create_thread(fair_spec("waiter"));
  sched.run_work(hog, 50000.0, [] {});
  sched.run_work(waiter, 1000.0, [] {});
  fx.engine.run();
  fx.tracer.finalize(fx.engine.now());
  const auto times = trace::state_times(fx.tracer, {waiter});
  EXPECT_GT(times.runnable, 0.0);
}

/// A thread that resubmits a fixed burst from its own completion callback
/// forever. The callback captures one pointer, so std::function stores it
/// inline and run_work itself never allocates.
struct BurstLoop {
  Scheduler* sched = nullptr;
  ThreadId tid = trace::kNoThread;
  double work_refus = 0.0;
  std::uint64_t bursts = 0;

  void submit() {
    sched->run_work(tid, work_refus, [this] {
      ++bursts;
      submit();
    });
  }
};

// The scheduler's counterpart of bench_engine's per-event allocation
// gate: a steady stream of CPU bursts must not heap-allocate per burst.
// Fair threads share core 0 with bursts shorter than a timeslice and
// equal-priority RT threads share core 1, so nothing is preempted
// (preemption records allocate).
TEST(Scheduler, SteadyBurstLoopAllocatesLessThanOncePerFourBursts) {
  Fixture fx;
  Scheduler sched(fx.engine, fx.tracer, quad_core(1.0));
  std::vector<BurstLoop> loops(4);
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const bool realtime = i >= 2;
    ThreadSpec spec = realtime ? rt_spec("rt" + std::to_string(i), 50)
                               : fair_spec("fair" + std::to_string(i));
    spec.affinity = realtime ? 0b10 : 0b01;
    loops[i] = BurstLoop{&sched, sched.create_thread(spec), realtime ? 150.0 : 200.0};
  }
  for (BurstLoop& loop : loops) loop.submit();

  auto total_bursts = [&] {
    std::uint64_t n = 0;
    for (const BurstLoop& loop : loops) n += loop.bursts;
    return n;
  };
  fx.engine.run_until(sec(1));  // warm-up: buffers reach their working size
  const std::uint64_t bursts_before = total_bursts();
  const std::uint64_t allocations_before = g_heap_allocations;
  fx.engine.run_until(sec(2));
  const std::uint64_t allocations = g_heap_allocations - allocations_before;
  const std::uint64_t bursts = total_bursts() - bursts_before;

  ASSERT_GE(bursts, 10000u);
  EXPECT_TRUE(fx.tracer.preemptions().empty());
  EXPECT_LT(allocations * 4, bursts) << allocations << " allocations over " << bursts << " bursts";
}

/// An RT thread that wakes on a flat timer `period` µs after each burst
/// completes, so every burst is a fresh wake.
struct RtWaker {
  sim::Engine* engine = nullptr;
  Scheduler* sched = nullptr;
  ThreadId tid = trace::kNoThread;
  sim::Time period = 0;
  std::uint64_t bursts = 0;

  static void wake(void* ctx, std::uint64_t) {
    auto* self = static_cast<RtWaker*>(ctx);
    self->sched->run_work(self->tid, 50.0, [self] {
      ++self->bursts;
      self->engine->schedule_flat(self->period, &RtWaker::wake, self);
    });
  }
};

// The same gate with a preemption in every burst: an RT thread wakes
// every 250 µs on the one core a long-running fair thread keeps busy, so
// each wake preempts it, goes to the front of the RT queue and is
// dispatched at once. At `Counters` the scheduler keeps no preemption
// episodes, so the queue itself must not allocate per preemption.
TEST(Scheduler, WakePreemptionLoopAllocatesLessThanOncePerFourBursts) {
  sim::Engine engine;
  trace::Tracer tracer(trace::TraceLevel::Counters);
  Scheduler sched(engine, tracer, single_core(1.0));
  BurstLoop busy{&sched, sched.create_thread(fair_spec("busy")), 20000.0};
  RtWaker waker{&engine, &sched, sched.create_thread(rt_spec("mmcqd", 50)), usec(200)};
  busy.submit();
  RtWaker::wake(&waker, 0);

  engine.run_until(sec(1));  // warm-up: buffers reach their working size
  const std::uint64_t bursts_before = waker.bursts;
  const std::uint64_t preempted_before = sched.counters(busy.tid).preemptions_suffered;
  const std::uint64_t allocations_before = g_heap_allocations;
  engine.run_until(sec(2));
  const std::uint64_t allocations = g_heap_allocations - allocations_before;
  const std::uint64_t bursts = waker.bursts - bursts_before;

  ASSERT_GE(bursts, 3000u);
  EXPECT_GE(sched.counters(busy.tid).preemptions_suffered - preempted_before, bursts - 1);
  EXPECT_TRUE(tracer.preemptions().empty());
  EXPECT_LT(allocations * 4, bursts) << allocations << " allocations over " << bursts << " bursts";
}

}  // namespace
}  // namespace mvqoe::sched
