// Cross-subsystem invariant oracles (DESIGN.md §12).
//
// Each oracle is a pure predicate over WorldObservation — no simulator
// access — so the corruption tests can feed hand-built observations and
// assert that exactly the intended oracle trips. Stateful oracles
// (scheduler state machine, vruntime monotonicity, counter monotonicity)
// carry their own per-run memory; use a fresh suite per run.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/observe.hpp"

namespace mvqoe::check {

struct Violation {
  std::string oracle;
  std::string detail;
  sim::Time at = 0;
  sim::Time offset = 0;
};

class Oracle {
 public:
  virtual ~Oracle() = default;
  virtual std::string name() const = 0;
  /// Per-slice check; nullopt = invariant holds.
  virtual std::optional<Violation> check(const WorldObservation& obs) = 0;
  /// End-of-run check (after finalize()); default: nothing extra.
  virtual std::optional<Violation> final_check(const WorldObservation& obs) {
    (void)obs;
    return std::nullopt;
  }
};

/// Page accounting: registry totals == pools, pools non-negative, and
/// free == total - kernel - anon - file - zram-physical (delegates to
/// MemoryManager::check_conservation, re-checked every slice).
class MemConservationOracle final : public Oracle {
 public:
  std::string name() const override { return "mem-conservation"; }
  std::optional<Violation> check(const WorldObservation& obs) override;
};

/// Watermark ordering and pool bounds: 0 < min <= low <= high, high
/// below reclaimable ceiling, zram within capacity, available =
/// free + file cache consistency bounds.
class WatermarkOracle final : public Oracle {
 public:
  std::string name() const override { return "watermarks"; }
  std::optional<Violation> check(const WorldObservation& obs) override;
};

/// kswapd wake/sleep legality: the daemon only sleeps with free memory
/// restored above the min watermark (sleep requires >= high, or >= low
/// on a fruitless batch; an allocation dropping free below min wakes it
/// synchronously), and the wakeup counter moves iff it can.
class KswapdOracle final : public Oracle {
 public:
  std::string name() const override { return "kswapd"; }
  std::optional<Violation> check(const WorldObservation& obs) override;

 private:
  bool have_prev_ = false;
  bool prev_active_ = false;
  std::uint64_t prev_wakeups_ = 0;
};

/// lmkd kill ordering: every kill victim carries the highest killable
/// oom_adj alive at decision time, and the band floor the killer used is
/// the one the pressure/minfree rules dictate for its recorded inputs.
class LmkdOrderOracle final : public Oracle {
 public:
  std::string name() const override { return "lmkd-order"; }
  std::optional<Violation> check(const WorldObservation& obs) override;

 private:
  /// Mirrors MemoryManager's last_lmkd_kill_ initializer so the charter
  /// cooldown check never trips on a world's very first lmkd kill.
  sim::Time last_lmkd_at_ = -sim::hours(1);
};

/// Scheduler per-thread state machine, restricted to what the interval
/// log can witness (the tracer suppresses zero-length intervals, so
/// instantaneous transition chains collapse): intervals have positive
/// length and tile time exactly, Created only opens a history,
/// Terminated never appears as an interval, and the preemptor
/// annotation appears exactly on RunnablePreempted intervals.
class SchedStateOracle final : public Oracle {
 public:
  std::string name() const override { return "sched-state"; }
  std::optional<Violation> check(const WorldObservation& obs) override;

 private:
  struct PerThread {
    bool seen = false;
    trace::ThreadState last_state = trace::ThreadState::Created;
    sim::Time last_end = 0;
  };
  std::map<trace::ThreadId, PerThread> threads_;
};

/// Per-thread vruntime monotonicity (enqueue clamps to the runqueue
/// minimum, never backwards).
class VruntimeOracle final : public Oracle {
 public:
  std::string name() const override { return "vruntime"; }
  std::optional<Violation> check(const WorldObservation& obs) override;

 private:
  std::map<sched::ThreadId, double> last_;
};

/// Frame/segment conservation per video session: presented / dropped /
/// lost-to-kill counters are monotone, never exceed the asset's frame
/// total, and — finally, for sessions that ended in playout or a
/// terminal kill — sum exactly to it.
class VideoFrameOracle final : public Oracle {
 public:
  std::string name() const override { return "video-frames"; }
  std::optional<Violation> check(const WorldObservation& obs) override;
  std::optional<Violation> final_check(const WorldObservation& obs) override;

 private:
  struct Prev {
    std::int64_t presented = 0;
    std::int64_t dropped = 0;
    std::int64_t lost = 0;
  };
  std::map<std::string, Prev> prev_;
};

/// Engine health: the event-queue bookkeeping audit, the livelock
/// tripwire (armed by the harness) and a bound on queued events — a
/// queue past it is a leak (something scheduling without ever firing).
class EngineOracle final : public Oracle {
 public:
  static constexpr std::size_t kMaxPendingEvents = 1 << 20;

  std::string name() const override { return "engine"; }
  std::optional<Violation> check(const WorldObservation& obs) override;
};

/// Byte conservation on the congestion-controlled link: bytes delivered
/// by retired flows plus every live flow's delivered count must equal
/// the link's cumulative bytes_delivered. Inert in fifo mode.
class NetConservationOracle final : public Oracle {
 public:
  std::string name() const override { return "net-conservation"; }
  std::optional<Violation> check(const WorldObservation& obs) override;
};

/// Droptail bound: the modeled bottleneck backlog never exceeds the
/// configured queue capacity (admission must drop, not grow the queue).
class NetQueueOracle final : public Oracle {
 public:
  std::string name() const override { return "net-queue"; }
  std::optional<Violation> check(const WorldObservation& obs) override;
};

/// Controller sanity per flow: the congestion window stays within
/// [one packet, 64 MiB] and the pacing rate is non-negative and finite.
class NetCwndOracle final : public Oracle {
 public:
  std::string name() const override { return "net-cwnd"; }
  std::optional<Violation> check(const WorldObservation& obs) override;
};

/// Monotone per-flow progress: a flow's delivered byte count never goes
/// backwards and never exceeds its transfer size.
class NetProgressOracle final : public Oracle {
 public:
  std::string name() const override { return "net-progress"; }
  std::optional<Violation> check(const WorldObservation& obs) override;

 private:
  std::map<std::uint64_t, std::uint64_t> last_delivered_;
};

/// The full per-run suite. check() returns the first violation found
/// this slice; check_all() returns every oracle that trips (the
/// corruption tests assert |check_all| == 1).
class OracleSuite {
 public:
  OracleSuite();

  std::optional<Violation> check(const WorldObservation& obs);
  std::optional<Violation> final_check(const WorldObservation& obs);
  std::vector<Violation> check_all(const WorldObservation& obs);

  const std::vector<std::unique_ptr<Oracle>>& oracles() const noexcept { return oracles_; }

 private:
  std::vector<std::unique_ptr<Oracle>> oracles_;
};

/// Canonical oracle names, in suite order (docs + tests).
std::vector<std::string> oracle_names();

}  // namespace mvqoe::check
