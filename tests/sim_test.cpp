#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "snapshot/digest.hpp"

namespace mvqoe::sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(msec(1), 1000);
  EXPECT_EQ(sec(1), 1'000'000);
  EXPECT_EQ(minutes(2), sec(120));
  EXPECT_EQ(hours(1), minutes(60));
  EXPECT_DOUBLE_EQ(to_seconds(sec(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_millis(msec(7)), 7.0);
  EXPECT_EQ(from_seconds(2.5), sec(2) + msec(500));
}

// ceil_int replaces static_cast<int64_t>(std::ceil(x)) on the scheduler's
// completion times and the reclaim budget, so it must agree everywhere:
// integers, fractions, the 2^52 edge where doubles stop holding
// fractions, denormals, signed zeros and negatives.
TEST(Time, CeilIntMatchesStdCeil) {
  const double two52 = 4503599627370496.0;
  std::vector<double> xs = {0.0,   -0.0,  std::numeric_limits<double>::denorm_min(),
                            1e-300, 0.5,  1.0,
                            std::nextafter(1.0, 2.0), std::nextafter(1.0, 0.0),
                            2.5,   1e6 + 0.25, -0.5, -1.0, -2.75, -1e-300};
  for (double base : {two52, 2.0 * two52, 4.0 * two52}) {
    for (double d = -4.0; d <= 4.0; d += 0.5) xs.push_back(base + d);
    xs.push_back(std::nextafter(base, 0.0));
    xs.push_back(std::nextafter(base, 2.0 * base));
  }
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double unit = static_cast<double>(state >> 11) * 0x1.0p-53;
    xs.push_back(unit * std::ldexp(1.0, static_cast<int>(state % 60)));
  }
  for (const double x : xs) {
    EXPECT_EQ(ceil_int(x), static_cast<std::int64_t>(std::ceil(x))) << std::hexfloat << x;
  }
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(sec(3), [&] { order.push_back(3); });
  engine.schedule_at(sec(1), [&] { order.push_back(1); });
  engine.schedule_at(sec(2), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), sec(3));
}

TEST(Engine, SameTimeEventsFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(sec(1), [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ScheduleRelativeDelay) {
  Engine engine;
  Time fired_at = -1;
  engine.schedule_at(sec(5), [&] {
    engine.schedule(msec(100), [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(fired_at, sec(5) + msec(100));
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine engine;
  Time fired_at = -1;
  engine.schedule_at(sec(1), [&] {
    engine.schedule(-sec(10), [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(fired_at, sec(1));
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(sec(1), [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));  // second cancel is a no-op
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelInvalidIdIsNoop) {
  Engine engine;
  EXPECT_FALSE(engine.cancel(kInvalidEvent));
  EXPECT_FALSE(engine.cancel(9999));
}

TEST(Engine, RunUntilStopsAtBoundaryInclusive) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(sec(1), [&] { ++fired; });
  engine.schedule_at(sec(2), [&] { ++fired; });
  engine.schedule_at(sec(3), [&] { ++fired; });
  engine.run_until(sec(2));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), sec(2));
  engine.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine engine;
  engine.run_until(sec(10));
  EXPECT_EQ(engine.now(), sec(10));
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine engine;
  EXPECT_FALSE(engine.step());
  bool fired = false;
  engine.schedule(0, [&] { fired = true; });
  EXPECT_TRUE(engine.step());
  EXPECT_TRUE(fired);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) engine.schedule(msec(1), recurse);
  };
  engine.schedule(0, recurse);
  engine.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(engine.now(), msec(99));
}

TEST(Engine, PendingEventsExcludesCancelled) {
  Engine engine;
  const EventId a = engine.schedule_at(sec(1), [] {});
  engine.schedule_at(sec(2), [] {});
  EXPECT_EQ(engine.pending_events(), 2u);
  engine.cancel(a);
  EXPECT_EQ(engine.pending_events(), 1u);
}

TEST(Engine, CancelThenRunUntilExactlyAtEventTimeIsClean) {
  // Regression for the lazy-cancel boundary case: an event cancelled
  // before run_until(t) where t is exactly its timestamp must neither
  // fire nor linger in the queue, and the clock must still land on t.
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(sec(2), [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  engine.run_until(sec(2));
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.now(), sec(2));
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_TRUE(engine.check_invariants());
}

TEST(Engine, CancelOneOfSameTimeEventsAtBoundaryKeepsOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(sec(1), [&] { order.push_back(0); });
  const EventId middle = engine.schedule_at(sec(1), [&] { order.push_back(1); });
  engine.schedule_at(sec(1), [&] { order.push_back(2); });
  engine.cancel(middle);
  engine.run_until(sec(1));
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_TRUE(engine.check_invariants());
}

TEST(Engine, DispatchedCountsExcludeCancelledEvents) {
  Engine engine;
  engine.schedule_at(sec(1), [] {});
  const EventId cancelled = engine.schedule_at(sec(2), [] {});
  engine.schedule_at(sec(3), [] {});
  engine.cancel(cancelled);
  engine.run();
  EXPECT_EQ(engine.dispatched(), 2u);
}

TEST(Engine, LivelockTripwireCountsZeroDelayRuns) {
  Engine engine;
  engine.set_livelock_limit(10);
  int count = 0;
  std::function<void()> spin = [&] {
    if (++count < 50) engine.schedule(0, spin);
  };
  engine.schedule(0, spin);
  engine.run();
  EXPECT_GE(engine.livelock_trips(), 1u);
}

TEST(Engine, AdvancingClockNeverTripsLivelock) {
  Engine engine;
  engine.set_livelock_limit(10);
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 50) engine.schedule(1, tick);
  };
  engine.schedule(0, tick);
  engine.run();
  EXPECT_EQ(engine.livelock_trips(), 0u);
}

TEST(Engine, InvariantsHoldThroughCancelChurn) {
  Engine engine;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(engine.schedule_at(msec(i), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) engine.cancel(ids[i]);
  EXPECT_TRUE(engine.check_invariants());
  engine.run_until(msec(100));
  EXPECT_TRUE(engine.check_invariants());
  engine.run();
  EXPECT_TRUE(engine.check_invariants());
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(PeriodicTask, FiresAtPeriodUntilStopped) {
  Engine engine;
  int fires = 0;
  PeriodicTask task(engine, sec(1), [&] { ++fires; });
  task.start();
  engine.run_until(sec(5));
  EXPECT_EQ(fires, 5);
  task.stop();
  engine.run_until(sec(10));
  EXPECT_EQ(fires, 5);
}

TEST(PeriodicTask, RestartAfterStop) {
  Engine engine;
  int fires = 0;
  PeriodicTask task(engine, sec(1), [&] { ++fires; });
  task.start();
  engine.run_until(sec(2));
  task.stop();
  task.start();
  engine.run_until(sec(4));
  EXPECT_EQ(fires, 4);
  EXPECT_TRUE(task.running());
}

TEST(PeriodicTask, DoubleStartIsIdempotent) {
  Engine engine;
  int fires = 0;
  PeriodicTask task(engine, sec(1), [&] { ++fires; });
  task.start();
  task.start();
  engine.run_until(sec(3));
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicTask, CanStopItselfFromCallback) {
  Engine engine;
  int fires = 0;
  PeriodicTask task(engine, sec(1), [&] {
    if (++fires == 3) task.stop();
  });
  task.start();
  engine.run_until(sec(10));
  EXPECT_EQ(fires, 3);
}

// Regression: cancelled far-future entries must not accumulate. A
// scheduler that parks 100k timers way out and cancels them all used to
// hold every entry until the clock reached it; compaction keeps the
// stored heap proportional to the live set.
TEST(Engine, CancelledFarFutureTimersAreCompacted) {
  Engine engine;
  std::size_t peak = 0;
  for (int i = 0; i < 100'000; ++i) {
    const EventId id = engine.schedule_at(hours(24) + sec(i), [] {});
    EXPECT_TRUE(engine.cancel(id));
    peak = std::max(peak, engine.queued_entries());
  }
  EXPECT_TRUE(engine.check_invariants());
  EXPECT_EQ(engine.pending_events(), 0u);
  // One live-entry-free heap never grows past the compaction floor.
  EXPECT_LT(peak, 256u);
  EXPECT_LT(engine.queued_entries(), 256u);
}

TEST(Engine, BulkCancelCompactsWithLiveEventsPresent) {
  Engine engine;
  int fired = 0;
  // 1k live near-term events interleaved with 100k far-future cancels.
  for (int i = 0; i < 1000; ++i) {
    engine.schedule_at(msec(i), [&] { ++fired; });
  }
  std::vector<EventId> doomed;
  doomed.reserve(100'000);
  for (int i = 0; i < 100'000; ++i) {
    doomed.push_back(engine.schedule_at(hours(48) + sec(i), [] {}));
  }
  for (const EventId id : doomed) engine.cancel(id);
  EXPECT_TRUE(engine.check_invariants());
  EXPECT_EQ(engine.pending_events(), 1000u);
  // Compaction bound: heap never holds more cancelled than live + floor.
  EXPECT_LE(engine.queued_entries(), 2u * engine.pending_events() + 64u);
  engine.run();
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(engine.queued_entries(), 0u);
  EXPECT_TRUE(engine.check_invariants());
}

TEST(Engine, CompactionPreservesTimeSeqDispatchOrder) {
  Engine engine;
  std::vector<int> order;
  // Same-time group whose FIFO order must survive a mid-stream rebuild.
  for (int i = 0; i < 100; ++i) {
    engine.schedule_at(sec(2), [&order, i] { order.push_back(i); });
  }
  // Trigger compaction between the scheduling and the dispatch.
  std::vector<EventId> doomed;
  for (int i = 0; i < 5000; ++i) doomed.push_back(engine.schedule_at(hours(1), [] {}));
  for (const EventId id : doomed) engine.cancel(id);
  EXPECT_TRUE(engine.check_invariants());
  engine.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, DigestInvariantAcrossCompactionBoundary) {
  // Two engines with identical schedule histories and identical final
  // live sets, but mechanically different cancellation paths: A cancels
  // all victims in one burst (crossing the maybe_compact threshold),
  // while B drains half its cancelled entries through run_until first
  // and never compacts. Logical state is equal, so digests must match.
  Engine a;
  Engine b;
  std::vector<EventId> victims_a;
  std::vector<EventId> victims_b;
  for (int i = 0; i < 140; ++i) {
    a.schedule_at(hours(1) + sec(i), [] {});
    b.schedule_at(hours(1) + sec(i), [] {});
  }
  for (int i = 0; i < 150; ++i) {
    victims_a.push_back(a.schedule_at(sec(1 + i), [] {}));
    victims_b.push_back(b.schedule_at(sec(1 + i), [] {}));
  }

  for (const EventId id : victims_a) a.cancel(id);  // compacts mid-burst

  for (int i = 0; i < 100; ++i) b.cancel(victims_b[static_cast<std::size_t>(i)]);
  b.run_until(0);  // pops the cancelled heads without advancing the clock
  for (int i = 100; i < 150; ++i) b.cancel(victims_b[static_cast<std::size_t>(i)]);

  // The mechanical histories really did diverge...
  EXPECT_NE(a.queued_entries(), b.queued_entries());
  // ...but the logical state did not.
  EXPECT_EQ(a.pending_events(), b.pending_events());
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.live_events(), b.live_events());
}

TEST(Engine, DigestReflectsClockSeqAndLiveSet) {
  Engine engine;
  const std::uint64_t empty = engine.digest();
  const EventId id = engine.schedule_at(sec(5), [] {});
  const std::uint64_t with_event = engine.digest();
  EXPECT_NE(empty, with_event);
  engine.cancel(id);
  // Cancelling restores the live set but not next_seq: an engine that
  // consumed an id will order future same-time events differently, so
  // the digest must not return to the empty-engine value.
  EXPECT_NE(engine.digest(), empty);
  EXPECT_NE(engine.digest(), with_event);

  // Pure clock advance (no events) changes the digest too.
  const std::uint64_t before = engine.digest();
  engine.run_until(sec(1));
  EXPECT_NE(engine.digest(), before);
}

// Regression: stopping from inside the callback and restarting in the
// same invocation must yield exactly one fresh chain (no lost or doubled
// fires).
TEST(PeriodicTask, RestartFromInsideCallback) {
  Engine engine;
  int fires = 0;
  PeriodicTask task(engine, sec(1), [&] {
    ++fires;
    if (fires == 2) {
      task.stop();
      EXPECT_FALSE(task.running());
      task.start();
      EXPECT_TRUE(task.running());
    }
  });
  task.start();
  engine.run_until(sec(6));
  // Fires at 1s..6s: the in-callback restart keeps the same cadence.
  EXPECT_EQ(fires, 6);
  task.stop();
  engine.run_until(sec(20));
  EXPECT_EQ(fires, 6);
}

TEST(PeriodicTask, StopDuringFireCancelsRescheduledChain) {
  Engine engine;
  int fires = 0;
  PeriodicTask task(engine, msec(10), [&] {
    ++fires;
    task.stop();
  });
  task.start();
  engine.run_until(sec(1));
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(task.running());
  EXPECT_EQ(engine.pending_events(), 0u);
}

// Regression: destroying the task from inside its own callback used to
// destroy the std::function mid-invocation (UB); the shared state block
// now outlives the call.
TEST(PeriodicTask, SelfDestructionFromCallbackIsSafe) {
  Engine engine;
  int fires = 0;
  PeriodicTask* task = nullptr;
  task = new PeriodicTask(engine, msec(10), [&] {
    ++fires;
    delete task;
    task = nullptr;
  });
  task->start();
  engine.run_until(sec(1));
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(task, nullptr);
  // The destructor cancelled the rescheduled fire: nothing left pending.
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_TRUE(engine.check_invariants());
}


// ---------------------------------------------------------------------------
// run_until contract (regression pin)
// ---------------------------------------------------------------------------

TEST(Engine, RunUntilLandsClockExactlyOnTarget) {
  // Pinned semantics: run_until(t) always leaves the clock at exactly t —
  // whether the last event fired before t, the queue drained early, or no
  // event was eligible at all. (The header once claimed the clock stopped
  // at the last event time; the implemented always-advance behavior is
  // what every idle-world caller depends on.)
  Engine engine;
  int fired = 0;
  engine.schedule_at(sec(1), [&] { ++fired; });
  engine.schedule_at(sec(7), [&] { ++fired; });

  engine.run_until(sec(3));  // one event behind t, one ahead
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), sec(3));
  EXPECT_EQ(engine.pending_events(), 1u);

  engine.run_until(sec(5));  // nothing eligible: clock still advances
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), sec(5));

  engine.run_until(sec(7));  // boundary-inclusive dispatch
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), sec(7));

  engine.run_until(sec(10));  // empty queue: clock lands on t regardless
  EXPECT_EQ(engine.now(), sec(10));
}

// ---------------------------------------------------------------------------
// Event arena: slot reuse, generation tags, bounded growth
// ---------------------------------------------------------------------------

TEST(EngineArena, StaleCancelAfterSlotReuseIsNoOp) {
  Engine engine;
  bool b_fired = false;
  const EventId a = engine.schedule_at(sec(1), [] {});
  ASSERT_TRUE(engine.cancel(a));
  // The freed slot is recycled immediately: same arena footprint.
  const EventId b = engine.schedule_at(sec(2), [&] { b_fired = true; });
  ASSERT_EQ(engine.slot_capacity(), 1u) << "cancel must recycle the slot";
  ASSERT_NE(a, b) << "generation tag must distinguish tenants of one slot";

  // Cancelling with the stale id is a harmless no-op; the new tenant
  // stays pending and fires.
  EXPECT_FALSE(engine.cancel(a));
  EXPECT_EQ(engine.pending_events(), 1u);
  EXPECT_TRUE(engine.check_invariants());
  engine.run();
  EXPECT_TRUE(b_fired);
  EXPECT_FALSE(engine.cancel(a));
  EXPECT_FALSE(engine.cancel(b));
}

TEST(EngineArena, SteadyStateLoopHoldsOneSlot) {
  // A self-rescheduling loop — the shape of every periodic sampler and
  // timeslice chain — must cycle through a single arena slot forever.
  Engine engine;
  int fires = 0;
  std::function<void()> tick = [&] {
    if (++fires < 10000) engine.schedule(msec(1), tick);
  };
  engine.schedule(msec(1), tick);
  engine.run();
  EXPECT_EQ(fires, 10000);
  EXPECT_EQ(engine.slot_capacity(), 1u);
  EXPECT_TRUE(engine.check_invariants());
}

TEST(EngineArena, SlotCapacityTracksLiveHighWater) {
  Engine engine;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(engine.schedule_at(sec(i + 1), [] {}));
  EXPECT_EQ(engine.slot_capacity(), 100u);
  for (const EventId id : ids) EXPECT_TRUE(engine.cancel(id));
  // Re-scheduling reuses the freed slots; the arena does not grow.
  for (int i = 0; i < 100; ++i) engine.schedule_at(sec(i + 1), [] {});
  EXPECT_EQ(engine.slot_capacity(), 100u);
  EXPECT_EQ(engine.pending_events(), 100u);
  EXPECT_TRUE(engine.check_invariants());
}

TEST(EngineArena, GenerationReuseStorm) {
  // Schedule/cancel storm over a small arena: every cancelled id is
  // retried after its slot has been reused, and must stay a no-op.
  Engine engine;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next_rand = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<EventId> stale;
  std::vector<EventId> live;
  for (int round = 0; round < 2000; ++round) {
    live.push_back(engine.schedule_at(sec(100) + static_cast<Time>(next_rand() % 1000), [] {}));
    if (live.size() > 8) {
      const std::size_t pick = next_rand() % live.size();
      ASSERT_TRUE(engine.cancel(live[pick]));
      stale.push_back(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (!stale.empty() && round % 7 == 0) {
      // Retired ids whose slots have long been recycled: all no-ops.
      ASSERT_FALSE(engine.cancel(stale[next_rand() % stale.size()]));
    }
    ASSERT_EQ(engine.pending_events(), live.size());
  }
  EXPECT_TRUE(engine.check_invariants());
  EXPECT_LE(engine.slot_capacity(), 16u) << "arena must track the live high-water, not the storm";
  for (const EventId id : stale) EXPECT_FALSE(engine.cancel(id));
  engine.run();
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_TRUE(engine.check_invariants());
}

// ---------------------------------------------------------------------------
// Compaction hysteresis: amortized-O(1) cancels
// ---------------------------------------------------------------------------

TEST(EngineArena, CancelStormCompactionIsAmortizedConstant) {
  // A workload hovering at the compaction threshold used to pay a full
  // O(n) rebuild (plus a realloc from shrink_to_fit) on nearly every
  // cancel. Each compaction now removes more than half the heap and
  // leaves zero stale residue, so the total entries scanned across all
  // rebuilds is linearly bounded by the number of cancels.
  Engine engine;
  std::uint64_t cancels = 0;
  for (int round = 0; round < 500; ++round) {
    std::vector<EventId> batch;
    for (int i = 0; i < 40; ++i) batch.push_back(engine.schedule_at(sec(1000) + round, [] {}));
    for (const EventId id : batch) {
      ASSERT_TRUE(engine.cancel(id));
      ++cancels;
    }
  }
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_GT(engine.compactions(), 0u);
  // Amortized-O(1): scanned work is a small constant per cancel. The
  // trigger ratio guarantees <= ~2 entries scanned per cancel; 4 leaves
  // headroom for the kCompactMinEntries floor.
  EXPECT_LE(engine.compaction_scanned(), 4 * cancels + 256);
  // And the storm never held more than the documented residue bound.
  EXPECT_LT(engine.queued_entries(), 2 * engine.pending_events() + 64);
  EXPECT_TRUE(engine.check_invariants());
}

TEST(EngineArena, CompactionCountersExposedAndMonotone) {
  Engine engine;
  EXPECT_EQ(engine.compactions(), 0u);
  EXPECT_EQ(engine.compaction_scanned(), 0u);
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) ids.push_back(engine.schedule_at(sec(100), [] {}));
  for (const EventId id : ids) engine.cancel(id);
  EXPECT_GT(engine.compactions(), 0u);
  EXPECT_GE(engine.compaction_scanned(), engine.compactions());
  EXPECT_TRUE(engine.check_invariants());
}

// ---------------------------------------------------------------------------
// pending_events underflow guard
// ---------------------------------------------------------------------------

TEST(EngineArena, PendingEventsIsMaintainedNotDerived) {
  // pending_events() was heap_size - cancelled_size in size_t: a
  // bookkeeping bug underflowed it to ~2^64. It is now a maintained
  // counter cross-checked by check_invariants(), so it can never exceed
  // the entries actually held, cancelled residue included.
  Engine engine;
  std::vector<EventId> ids;
  for (int i = 0; i < 300; ++i) ids.push_back(engine.schedule_at(sec(1 + i % 7), [] {}));
  for (std::size_t i = 0; i < ids.size(); i += 2) engine.cancel(ids[i]);
  EXPECT_LE(engine.pending_events(), engine.queued_entries());
  EXPECT_EQ(engine.pending_events(), engine.live_events().size());
  EXPECT_TRUE(engine.check_invariants());
  engine.run();
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_LE(engine.pending_events(), engine.queued_entries());
  // Double-cancel (the classic way to corrupt derived bookkeeping) stays
  // a no-op: counters and invariants hold.
  for (const EventId id : ids) EXPECT_FALSE(engine.cancel(id));
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_TRUE(engine.check_invariants());
}

// ---------------------------------------------------------------------------
// Flat events: dispatch parity with closures
// ---------------------------------------------------------------------------

namespace flat_helpers {
struct Recorder {
  std::vector<std::uint64_t> seen;
};
void record(void* ctx, std::uint64_t arg) {
  static_cast<Recorder*>(ctx)->seen.push_back(arg);
}
}  // namespace flat_helpers

TEST(EngineFlat, FlatAndClosureEventsShareOneFifoOrder) {
  Engine engine;
  flat_helpers::Recorder rec;
  std::vector<std::uint64_t> order;
  engine.schedule_flat_at(sec(1), &flat_helpers::record, &rec, 1);
  engine.schedule_at(sec(1), [&] { order.push_back(2); });
  engine.schedule_flat_at(sec(1), &flat_helpers::record, &rec, 3);
  engine.schedule_at(sec(1), [&] { order.push_back(4); });
  engine.run();
  // Both flavours draw from the same seq counter: strict FIFO among
  // same-time events regardless of how they were scheduled.
  ASSERT_EQ(rec.seen, (std::vector<std::uint64_t>{1, 3}));
  ASSERT_EQ(order, (std::vector<std::uint64_t>{2, 4}));
  EXPECT_EQ(engine.dispatched(), 4u);
}

TEST(EngineFlat, FlatEventsCancelAndCarryArgs) {
  Engine engine;
  flat_helpers::Recorder rec;
  const EventId keep = engine.schedule_flat(sec(1), &flat_helpers::record, &rec, 0xdeadbeefull);
  const EventId drop = engine.schedule_flat(sec(2), &flat_helpers::record, &rec, 7);
  EXPECT_TRUE(engine.cancel(drop));
  EXPECT_FALSE(engine.cancel(drop));
  engine.run();
  ASSERT_EQ(rec.seen, (std::vector<std::uint64_t>{0xdeadbeefull}));
  EXPECT_FALSE(engine.cancel(keep));
  EXPECT_TRUE(engine.check_invariants());
}

TEST(EngineFlat, DigestBlindToSchedulingFlavour) {
  // Two engines scheduling the same (time, seq) stream — one flat, one
  // closures — are indistinguishable to digest(), live_events() and
  // save(): flatness is an allocation detail, not replayable state.
  Engine flat_engine;
  Engine closure_engine;
  flat_helpers::Recorder rec;
  for (int i = 0; i < 20; ++i) {
    flat_engine.schedule_flat_at(sec(i % 5), &flat_helpers::record, &rec,
                                 static_cast<std::uint64_t>(i));
    closure_engine.schedule_at(sec(i % 5), [] {});
  }
  EXPECT_EQ(flat_engine.digest(), closure_engine.digest());
  EXPECT_EQ(flat_engine.live_events(), closure_engine.live_events());
  flat_engine.run_until(sec(2));
  closure_engine.run_until(sec(2));
  EXPECT_EQ(flat_engine.digest(), closure_engine.digest());
}

// ---------------------------------------------------------------------------
// Differential check against a reference model
// ---------------------------------------------------------------------------

// Executable spec of the engine's serializable behavior: an ordered map
// of (time, seq) with eager erase — no heap, no arena, no lazy residue.
// The arena engine must be observationally identical under any
// schedule/cancel/run interleaving.
class ReferenceEngine {
 public:
  std::uint64_t schedule_at(Time t, Time* now) {
    if (t < now_) t = now_;
    const std::uint64_t seq = next_seq_++;
    live_.emplace(std::make_pair(t, seq), 0);
    if (now != nullptr) *now = now_;
    return seq;
  }
  bool cancel(std::uint64_t seq) {
    for (auto it = live_.begin(); it != live_.end(); ++it) {
      if (it->first.second == seq) {
        live_.erase(it);
        return true;
      }
    }
    return false;
  }
  void run_until(Time t) {
    while (!live_.empty() && live_.begin()->first.first <= t) {
      now_ = live_.begin()->first.first;
      ++dispatched_;
      live_.erase(live_.begin());
    }
    if (now_ < t) now_ = t;
  }
  std::vector<std::pair<Time, std::uint64_t>> live_events() const {
    std::vector<std::pair<Time, std::uint64_t>> out;
    for (const auto& [key, value] : live_) out.push_back(key);
    return out;
  }
  std::uint64_t digest() const {
    snapshot::StateHash h;
    h.mix(static_cast<std::uint64_t>(now_));
    h.mix(next_seq_);
    for (const auto& [key, value] : live_) {
      h.mix(static_cast<std::uint64_t>(key.first));
      h.mix(key.second);
    }
    return h.value();
  }
  Time now() const { return now_; }
  std::size_t pending() const { return live_.size(); }
  std::uint64_t dispatched() const { return dispatched_; }

 private:
  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
  std::map<std::pair<Time, std::uint64_t>, int> live_;
};

TEST(EngineArena, DifferentialDigestAgainstReferenceModel) {
  Engine engine;
  ReferenceEngine ref;
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  auto next_rand = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  // Parallel id spaces: engine EventIds alongside the reference seqs.
  std::vector<std::pair<EventId, std::uint64_t>> live;
  std::vector<std::pair<EventId, std::uint64_t>> retired;
  for (int round = 0; round < 3000; ++round) {
    const std::uint64_t op = next_rand() % 10;
    if (op < 5) {  // schedule (no-op payload: only (time, seq) is state)
      const Time t = engine.now() + static_cast<Time>(next_rand() % sec(2));
      const EventId id = engine.schedule_at(t, [] {});
      const std::uint64_t seq = ref.schedule_at(t, nullptr);
      ASSERT_EQ(engine.seq_of(id), seq) << "seq streams diverged";
      live.emplace_back(id, seq);
    } else if (op < 7 && !live.empty()) {  // cancel a live event
      const std::size_t pick = next_rand() % live.size();
      ASSERT_TRUE(engine.cancel(live[pick].first));
      ASSERT_TRUE(ref.cancel(live[pick].second));
      retired.push_back(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (op < 8 && !retired.empty()) {  // stale cancel: both no-op
      const auto& dead = retired[next_rand() % retired.size()];
      ASSERT_FALSE(engine.cancel(dead.first));
      ASSERT_FALSE(ref.cancel(dead.second));
    } else {  // advance time, dispatching everything due
      const Time t = engine.now() + static_cast<Time>(next_rand() % sec(1));
      engine.run_until(t);
      ref.run_until(t);
      const Time now = engine.now();
      live.erase(std::remove_if(live.begin(), live.end(),
                                [&engine](const auto& entry) {
                                  return engine.seq_of(entry.first) == 0;
                                }),
                 live.end());
      ASSERT_EQ(now, ref.now());
    }
    ASSERT_EQ(engine.pending_events(), ref.pending());
    ASSERT_EQ(engine.dispatched(), ref.dispatched());
    if (round % 16 == 0) {
      ASSERT_EQ(engine.live_events(), ref.live_events());
      ASSERT_EQ(engine.digest(), ref.digest());
      ASSERT_TRUE(engine.check_invariants());
    }
  }
  EXPECT_EQ(engine.live_events(), ref.live_events());
  EXPECT_EQ(engine.digest(), ref.digest());
  EXPECT_TRUE(engine.check_invariants());
}

TEST(PeriodicTask, SteadyStateAllocatesNoNewSlots) {
  Engine engine;
  int fires = 0;
  PeriodicTask task(engine, msec(16), [&] { ++fires; });  // vsync-shaped
  task.start();
  engine.run_until(sec(60));
  EXPECT_GT(fires, 3000);
  // The periodic chain cycles through a single arena slot.
  EXPECT_EQ(engine.slot_capacity(), 1u);
  task.stop();
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_TRUE(engine.check_invariants());
}

TEST(PeriodicTask, DestructionOutsideCallbackStillCancels) {
  Engine engine;
  int fires = 0;
  {
    PeriodicTask task(engine, sec(1), [&] { ++fires; });
    task.start();
    engine.run_until(sec(2));
  }
  engine.run_until(sec(10));
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(engine.pending_events(), 0u);
}

}  // namespace
}  // namespace mvqoe::sim
