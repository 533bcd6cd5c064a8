// Discrete-event simulation engine.
//
// A single Engine instance owns the simulated clock and an event queue.
// Components schedule callbacks; the engine dispatches them in time order
// (FIFO among same-time events, so the simulation is fully deterministic).
// Events can be cancelled by id — the scheduler uses this heavily for
// timeslice expiry and sleep timers.
//
// Storage is a slab arena (DESIGN.md §14): every pending event lives in a
// slot recycled through a free list, the heap holds flat (time, seq, slot)
// entries, and ids carry a per-slot generation tag so a stale cancel()
// after the slot was reused is a harmless no-op. The hottest event kinds
// (timeslice expiry, link completion/timeouts, watchdogs, periodic
// samplers) are scheduled as *flat* events — a raw function pointer plus a
// context pointer and one 64-bit argument — so the steady-state hot path
// performs no allocation at all; std::function remains as the cold
// fallback for caller-supplied closures.
//
// Cancellation is lazy (the heap entry stays until it is popped or the
// heap is compacted), but bounded: once cancelled entries outnumber live
// ones the heap is rebuilt without them, so a workload that schedules and
// cancels far-future timers forever holds O(live events) memory instead
// of growing until the clock reaches the dead entries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "snapshot/bytes.hpp"

namespace mvqoe::sim {

/// Handle to a scheduled event; kInvalidEvent compares false-y. Encodes
/// (generation << 32) | (slot + 1): the +1 keeps slot 0 / generation 0
/// distinct from kInvalidEvent, and the generation tag detects slot reuse.
using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

class Engine {
 public:
  using Callback = std::function<void()>;
  /// Flat event handler: the allocation-free hot path. The engine stores
  /// (fn, ctx, arg) inline in the event slot; no closure is created.
  using FlatFn = void (*)(void* ctx, std::uint64_t arg);

  Time now() const noexcept { return now_; }

  /// Schedule `fn` to run at absolute time `t` (clamped to now()).
  EventId schedule_at(Time t, Callback fn);
  /// Schedule `fn` to run `delay` from now (negative delays clamp to 0).
  EventId schedule(Time delay, Callback fn);

  /// Flat variants: `fn(ctx, arg)` runs at the scheduled time. The caller
  /// guarantees `ctx` outlives the event (or cancels it first). Dispatch
  /// order is interchangeable with the closure variants — both draw seq
  /// numbers from the same counter, so digests and snapshots cannot tell
  /// which flavour scheduled an event.
  EventId schedule_flat_at(Time t, FlatFn fn, void* ctx, std::uint64_t arg = 0);
  EventId schedule_flat(Time delay, FlatFn fn, void* ctx, std::uint64_t arg = 0);

  /// Cancel a pending event. Returns true if the event was still pending.
  /// Cancelling an already-fired, stale (slot since reused) or invalid id
  /// is a harmless no-op.
  bool cancel(EventId id);

  /// Run events with time <= `t` (events scheduled exactly at `t` do
  /// run), then land the clock on exactly `t` — even when the queue
  /// drained early or was empty to begin with. Callers rely on this to
  /// advance idle worlds; see RunUntilAdvancesClockWhenIdle.
  void run_until(Time t);

  /// Run until the event queue is fully drained.
  void run();

  /// Process a single event if one is pending; returns false when idle.
  bool step();

  /// Live (not-yet-fired, not-cancelled) events. Maintained as a counter,
  /// so a bookkeeping bug shows up in check_invariants() instead of
  /// underflowing a size_t subtraction.
  std::size_t pending_events() const noexcept { return live_count_; }

  /// Heap entries actually held, including lazily-cancelled ones waiting
  /// to be compacted away — the memory-bound observable the compaction
  /// tests assert on. Always < 2 * pending_events() + kCompactMinEntries.
  std::size_t queued_entries() const noexcept { return heap_.size(); }

  /// Arena slots ever allocated (live + free-listed). Stops growing once
  /// the workload reaches steady state — the slot-reuse observable the
  /// arena stress tests assert on.
  std::size_t slot_capacity() const noexcept { return slots_.size(); }

  /// Total events dispatched since construction (cancelled entries do not
  /// count). Watchdogs use this to detect livelock-free progress.
  std::uint64_t dispatched() const noexcept { return dispatched_; }

  /// Total schedule_*() calls and successful cancel() calls since
  /// construction. Together with dispatched() these describe a workload's
  /// event profile — bench_engine replays the measured mix of a real
  /// world against engine variants.
  std::uint64_t scheduled() const noexcept { return next_seq_ - 1; }
  std::uint64_t cancels() const noexcept { return cancels_; }

  /// Compaction observability: number of heap rebuilds and total entries
  /// scanned across them. Each rebuild removes more than half the heap,
  /// so scanned work is bounded by ~2x the number of cancels — the
  /// amortized-O(1) churn regression test asserts on exactly this.
  std::uint64_t compactions() const noexcept { return compactions_; }
  std::uint64_t compaction_scanned() const noexcept { return compaction_scanned_; }

  /// Livelock tripwire: a run of more than `limit` consecutive events at a
  /// single timestamp (a zero-delay reschedule loop never advancing the
  /// clock) increments livelock_trips(). 0 disables the check. Detection
  /// only — the engine keeps running so callers can observe and bail.
  void set_livelock_limit(std::uint64_t limit) noexcept { livelock_limit_ = limit; }
  std::uint64_t livelock_trips() const noexcept { return livelock_trips_; }

  /// Arena bookkeeping audit: live heap entries (slot seq matches) must
  /// equal both live_count_ and the number of occupied slots, every live
  /// entry's cached time must match its slot, and the free list must
  /// thread exactly through the unoccupied slots without cycles. Cheap
  /// enough to run at every slice (check::EngineOracle).
  bool check_invariants() const noexcept;

  /// The seq number of a live event, or 0 if `id` is not live. The seq is
  /// the stable serializable identity of an event (ids encode arena slot
  /// positions, which are an allocation artifact) — snapshot sections
  /// that reference engine events persist the seq, never the id.
  std::uint64_t seq_of(EventId id) const noexcept;

  /// Live (time, seq) pairs in dispatch order; lazily-cancelled entries
  /// are excluded. This is the serializable view of the event queue (the
  /// callbacks themselves are closures and cannot be serialized — see
  /// DESIGN.md §10).
  std::vector<std::pair<Time, std::uint64_t>> live_events() const;

  /// Stable 64-bit hash of (now, next_seq, live timer set). Invariant to
  /// heap layout, lazily-cancelled residue, arena slot placement and
  /// maybe_compact() timing: two engines with the same clock, same seq
  /// counter and the same set of pending live events digest identically
  /// no matter how they got there.
  std::uint64_t digest() const;

  /// Serialize the replayable view: clock, seq counter, dispatch count
  /// and the sorted live (time, seq) list.
  void save(snapshot::ByteWriter& w) const;

 private:
  /// One arena slot. `seq` doubles as the occupancy flag (0 = free) and
  /// the staleness check for heap entries: an entry is live iff its seq
  /// still matches its slot's. `generation` is bumped on every release so
  /// an old id can never alias the slot's next tenant.
  struct Slot {
    std::uint64_t seq = 0;
    Time time = 0;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNilSlot;
    FlatFn flat_fn = nullptr;
    void* flat_ctx = nullptr;
    std::uint64_t flat_arg = 0;
    Callback fn;  // cold fallback; empty for flat events
  };
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
#if defined(__SIZEOF_INT128__)
      // Dispatch order is the lexicographic (time, seq) pair; time is
      // non-negative, so fusing both into one 128-bit key turns the
      // two-branch comparison into a single flag-register compare. This
      // comparator runs ~2 log n times per event — it is the single
      // hottest expression in the simulator.
      return key(a) > key(b);
#else
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
#endif
    }
#if defined(__SIZEOF_INT128__)
    static unsigned __int128 key(const Entry& e) noexcept {
      return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(e.time)) << 64) | e.seq;
    }
#endif
  };

  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  /// Below this size lazy cancellation is cheaper than rebuilding.
  static constexpr std::size_t kCompactMinEntries = 64;

  static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1u;
  }
  static constexpr std::uint32_t generation_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static constexpr EventId make_id(std::uint32_t generation, std::uint32_t slot) noexcept {
    return (static_cast<EventId>(generation) << 32) | (static_cast<EventId>(slot) + 1u);
  }

  /// Pop a slot off the free list (or grow the arena) and stamp it with a
  /// fresh seq; pushes the matching heap entry.
  std::uint32_t acquire_slot(Time t);
  /// Return a slot to the free list, bumping its generation and dropping
  /// any retained closure. Flat payload fields are left as-is: a free
  /// slot's contents are dead (seq == 0 gates every read), and the next
  /// tenant's schedule_*_at stamps them before they can be observed.
  void release_slot(std::uint32_t idx);
  const Slot* live_slot(EventId id) const noexcept;

  /// Rebuild the heap without the stale entries once they dominate.
  /// (time, seq) ordering is carried by the entries themselves, so the
  /// rebuild cannot reorder dispatch. Capacity is deliberately retained
  /// (no shrink_to_fit): the high-water allocation is the hysteresis that
  /// keeps a workload hovering at the trigger ratio from paying a realloc
  /// per compaction.
  void maybe_compact();

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
  std::uint64_t livelock_limit_ = 0;
  std::uint64_t livelock_trips_ = 0;
  std::uint64_t same_time_run_ = 0;
  Time last_dispatch_time_ = -1;
  std::size_t live_count_ = 0;
  std::uint64_t cancels_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t compaction_scanned_ = 0;
  /// Binary heap ordered by Later (std::push_heap/pop_heap), kept as a
  /// plain vector so maybe_compact() can filter it in place.
  std::vector<Entry> heap_;
  /// Next-event register: the earliest pending entry is staged here, out
  /// of the heap. schedule keeps the earlier of (new event, staged) and
  /// spills the other; dispatch takes the staged entry directly whenever
  /// it beats the heap root. A monotone chain — one event scheduling its
  /// successor, the dominant single-world shape (periodic samplers,
  /// vsync, timeslice/sleep rearm) — cycles through this register and
  /// never pays a heap sift. cancel() clears it on a match, so a valid
  /// staged entry is always live.
  Entry staged_{0, 0, 0};
  bool staged_valid_ = false;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
};

// ---------------------------------------------------------------------------
// Hot-path definitions, header-inline on purpose: schedule/dispatch/cancel
// are called once per simulated event by every client TU, and keeping them
// visible to the caller's optimizer (no cross-TU call, arguments constant-
// folded) is worth roughly as much as the arena itself. Cold surface
// (digest/save/live_events/check_invariants/PeriodicTask) stays in the .cpp.
// ---------------------------------------------------------------------------

inline std::uint32_t Engine::acquire_slot(Time t) {
  std::uint32_t idx;
  if (free_head_ != kNilSlot) {
    idx = free_head_;
    free_head_ = slots_[idx].next_free;  // next_free left stale; seq gates it
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[idx];
  s.seq = next_seq_++;
  s.time = t;
  const Entry e{t, s.seq, idx};
  if (!staged_valid_) {
    staged_ = e;
    staged_valid_ = true;
  } else if (Later{}(staged_, e)) {
    // The new event dispatches before the staged one: swap them and spill
    // the later entry to the heap.
    heap_.push_back(staged_);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    staged_ = e;
  } else {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  ++live_count_;
  return idx;
}

inline void Engine::release_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.seq = 0;
  ++s.generation;  // stale ids can never match the slot's next tenant
  if (s.fn) s.fn = nullptr;  // drop the closure now, not at slot reuse
  s.next_free = free_head_;
  free_head_ = idx;
}

inline const Engine::Slot* Engine::live_slot(EventId id) const noexcept {
  if (id == kInvalidEvent) return nullptr;
  const std::uint32_t idx = slot_of(id);
  if (idx >= slots_.size()) return nullptr;
  const Slot& s = slots_[idx];
  if (s.seq == 0 || s.generation != generation_of(id)) return nullptr;
  return &s;
}

inline EventId Engine::schedule_at(Time t, Callback fn) {
  if (t < now_) t = now_;
  const std::uint32_t idx = acquire_slot(t);
  Slot& s = slots_[idx];
  s.flat_fn = nullptr;  // the slot may be reused from a flat tenant
  s.fn = std::move(fn);
  return make_id(s.generation, idx);
}

inline EventId Engine::schedule(Time delay, Callback fn) {
  if (delay < 0) delay = 0;
  return schedule_at(now_ + delay, std::move(fn));
}

inline EventId Engine::schedule_flat_at(Time t, FlatFn fn, void* ctx, std::uint64_t arg) {
  if (t < now_) t = now_;
  const std::uint32_t idx = acquire_slot(t);
  Slot& s = slots_[idx];
  s.flat_fn = fn;
  s.flat_ctx = ctx;
  s.flat_arg = arg;
  return make_id(s.generation, idx);
}

inline EventId Engine::schedule_flat(Time delay, FlatFn fn, void* ctx, std::uint64_t arg) {
  if (delay < 0) delay = 0;
  return schedule_flat_at(now_ + delay, fn, ctx, arg);
}

inline bool Engine::cancel(EventId id) {
  const Slot* s = live_slot(id);
  if (s == nullptr) return false;
  const std::uint32_t idx = slot_of(id);
  if (staged_valid_ && staged_.slot == idx) staged_valid_ = false;
  release_slot(idx);
  --live_count_;
  ++cancels_;
  maybe_compact();
  return true;
}

inline std::uint64_t Engine::seq_of(EventId id) const noexcept {
  const Slot* s = live_slot(id);
  return s != nullptr ? s->seq : 0;
}

inline void Engine::maybe_compact() {
  // A scheduler that parks far-future timers and cancels them long before
  // they mature would otherwise grow the heap until the clock catches up.
  // The trigger (stale entries strictly outnumber live ones) guarantees
  // each rebuild discards more than half the heap, so total compaction
  // work stays amortized-O(1) per cancel; compacting removes *all* stale
  // residue, dropping the ratio to 0 — far below the trigger — which is
  // the hysteresis that prevents a rebuild on every subsequent cancel.
  const std::size_t pending = heap_.size() + (staged_valid_ ? 1 : 0);
  const std::size_t stale = pending - live_count_;
  if (heap_.size() < kCompactMinEntries || stale * 2 <= heap_.size()) return;
  compaction_scanned_ += heap_.size();
  ++compactions_;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return slots_[e.slot].seq != e.seq; }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

inline bool Engine::step() {
  for (;;) {
    Entry top;
    if (staged_valid_ && (heap_.empty() || !Later{}(staged_, heap_.front()))) {
      // The staged entry is the global minimum: dispatch it without
      // touching the heap. Steady-state chains live entirely here.
      top = staged_;
      staged_valid_ = false;
    } else if (!heap_.empty()) {
      top = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      Slot& hs = slots_[top.slot];
      if (hs.seq != top.seq) continue;  // stale: cancelled, slot maybe reused
    } else {
      return false;
    }
    Slot& s = slots_[top.slot];
    now_ = top.time;
    ++dispatched_;
    --live_count_;
    if (livelock_limit_ != 0) {
      // Same-timestamp run tracking is only needed while the tripwire is
      // armed; counting starts from the moment set_livelock_limit enables
      // it, which is when every caller arms it (before running).
      if (top.time == last_dispatch_time_) {
        ++same_time_run_;
        if (same_time_run_ == livelock_limit_ + 1) ++livelock_trips_;
      } else {
        last_dispatch_time_ = top.time;
        same_time_run_ = 1;
      }
    }
    // Release the slot before invoking so the handler can reschedule into
    // it (steady-state loops cycle through one slot, allocation-free) and
    // a self-cancel from inside the handler is a harmless no-op.
    if (s.flat_fn != nullptr) {
      const FlatFn fn = s.flat_fn;
      void* ctx = s.flat_ctx;
      const std::uint64_t arg = s.flat_arg;
      // Manual release: a flat tenant never holds a closure (and release
      // always clears one), so skip release_slot's std::function check.
      s.seq = 0;
      ++s.generation;
      s.next_free = free_head_;
      free_head_ = top.slot;
      fn(ctx, arg);
    } else {
      Callback fn = std::move(s.fn);
      release_slot(top.slot);
      fn();
    }
    return true;
  }
}

inline void Engine::run_until(Time t) {
  for (;;) {
    // Skip over stale (cancelled) heap entries without advancing the clock.
    while (!heap_.empty() && slots_[heap_.front().slot].seq != heap_.front().seq) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
    // The next event is the earlier of the staged entry and the heap root
    // (a valid staged entry is always live — cancel() clears it).
    const Entry* next = staged_valid_ ? &staged_ : nullptr;
    if (!heap_.empty() && (next == nullptr || Later{}(*next, heap_.front()))) {
      next = &heap_.front();
    }
    if (next == nullptr || next->time > t) break;
    step();
  }
  if (now_ < t) now_ = t;
}

inline void Engine::run() {
  while (step()) {
  }
}

/// Repeats a callback at a fixed period until stopped. Used for periodic
/// samplers (vmstat/PSS logging, lmkd pressure polling, vsync).
///
/// The callback may re-enter the task: stop(), stop()+start(), and even
/// destroying the PeriodicTask itself from inside the callback are safe.
/// The chain holds the shared state block alive (a self-reference while a
/// fire is pending, plus a stack pin during dispatch), so a mid-callback
/// destruction never frees the callable being run. The per-fire
/// reschedule uses the engine's flat path — a periodic task in steady
/// state allocates nothing.
class PeriodicTask {
 public:
  PeriodicTask(Engine& engine, Time period, Engine::Callback fn);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start();
  void stop();
  bool running() const noexcept;

 private:
  struct State;
  static void fire(void* ctx, std::uint64_t);

  std::shared_ptr<State> state_;
};

}  // namespace mvqoe::sim
