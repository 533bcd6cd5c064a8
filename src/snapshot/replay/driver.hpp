// Deterministic re-execution driver.
//
// Restoring a checkpoint is implemented as replay, not deserialization:
// the engine's event queue holds closures (scheduler timeslices, I/O
// completions, duty loops) that cannot be serialized, so a blob stores
// the *scenario* plus a digest trail, and "restore to T" means re-running
// the scenario to T and proving equivalence by digest (DESIGN.md §10).
//
// The driver reproduces ScenarioDriver::run()'s event sequence exactly —
// including its 1-second slice cadence, whose run_until boundaries are
// observable state (the clock lands on them even when no event does).
// Multi-session scenarios replay the same way: every session's state is a
// registry component, so the digest trail covers all of them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "scenario/driver.hpp"
#include "snapshot/blob.hpp"

namespace mvqoe::snapshot::replay {

class ReplayDriver {
 public:
  explicit ReplayDriver(scenario::ScenarioSpec scen,
                        trace::TraceLevel trace_level = trace::TraceLevel::Counters);

  const scenario::ScenarioSpec& scenario() const noexcept { return driver_.spec(); }

  /// Test/bisection hook: at the first slice boundary >= video_start +
  /// `offset`, flip one bit of the SystemActivity RNG state — the
  /// smallest possible state corruption, invisible until the stream is
  /// next consumed. Must be set before start().
  void set_perturb_at(sim::Time offset) { perturb_at_ = offset; }

  /// Boot + pressure phase + session starts (scenario phases 1-2).
  void start();

  /// Advance in 1-second slices until video_start + `offset` (a whole
  /// number of seconds). Returns false if the scenario finished (or hit
  /// its horizon) before the target — the clock then rests on the last
  /// slice boundary reached.
  bool advance_to_offset(sim::Time offset);

  bool done() const;
  sim::Time now() const;
  sim::Time video_start() const;
  /// Offset of the current slice boundary from video start.
  sim::Time offset() const { return now() - video_start(); }

  /// Full-state digest / per-component digests / serialized sections.
  std::uint64_t digest() const;
  std::vector<std::pair<std::string, std::uint64_t>> digests() const;
  void save(Snapshot& snap) const;

  /// Apply the one-bit RNG perturbation immediately.
  void perturb_now();
  bool perturbed() const noexcept { return perturbed_; }

  /// Lockstep surface for divergence pinpointing: the (time, seq) of the
  /// next live event, and single-event stepping.
  std::optional<std::pair<sim::Time, std::uint64_t>> next_event() const;
  bool step_event();

  mvqoe::scenario::ScenarioDriver& driver() noexcept { return driver_; }
  mvqoe::scenario::ScenarioResult finalize() { return driver_.finalize(); }

 private:
  void maybe_perturb();

  mvqoe::scenario::ScenarioDriver driver_;
  std::optional<sim::Time> perturb_at_;
  bool perturbed_ = false;
};

}  // namespace mvqoe::snapshot::replay
