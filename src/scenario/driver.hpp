// Scenario execution driver (DESIGN.md §11) — the only driver of a
// scenario world.
//
// Owns the workloads and runs them on one Testbed through a phased
// prepare/start/advance/finalize API: every workload attaches during the
// world phase (pressure regimes block until established), every session
// starts at the same instant, and one 1-second slice cadence advances
// them all — so concurrent video sessions contend for the same pages,
// CPU and link inside a single simulated device. The §5 trace-analysis
// benches run a scenario to completion and then dissect testbed() and
// video().
//
// Restoring a checkpoint is replay, not deserialization (DESIGN.md §10):
// the engine's queue holds closures that cannot be serialized, so a blob
// stores the scenario plus a digest trail, and "restore to T" re-runs
// the scenario with advance_to(T). The slice boundaries are observable
// state (the clock lands on them even when no event does), so every
// record, verify and bisect walk steps through this driver's slices. The
// single-video event sequence is pinned by the golden-blob replay test
// (tests/data/golden_fig16.blob); the snapshot surface walks the
// Testbed's component registry.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/testbed.hpp"
#include "scenario/spec.hpp"
#include "scenario/workloads.hpp"

namespace mvqoe::scenario {

/// Per-session result, labelled with the workload's label.
struct SessionReport {
  std::string label;
  core::VideoRunResult result;
};

struct ScenarioResult {
  /// Worst session status (Completed < TimedOut < Aborted < Crashed).
  core::RunStatus status = core::RunStatus::Completed;
  /// Pressure level observed when the sessions started.
  mem::PressureLevel start_level = mem::PressureLevel::Normal;
  /// One report per video workload, in spec order.
  std::vector<SessionReport> sessions;
};

class ScenarioDriver {
 public:
  /// The world's tracer records at `trace_level`: `Counters` keeps the
  /// instants and counter samples every QoE reader uses; the §5
  /// dissections and the oracles ask for `Full`. The level is not part of
  /// the spec and enters no snapshot byte or digest.
  explicit ScenarioDriver(ScenarioSpec spec,
                          trace::TraceLevel trace_level = trace::TraceLevel::Counters);
  ~ScenarioDriver();

  /// prepare + start + advance to completion + finalize.
  ScenarioResult run();

  // --- Phased execution (checkpoint/replay surface) ------------------------
  /// Phase 1: boot the testbed and attach every workload in order —
  /// pressure workloads establish their regime here (§4.1). Ends at the
  /// quiescent point right before sessions are built.
  void prepare();
  /// Retarget video workload 0 between prepare() and start(), so one
  /// prepared world can play any (height, fps) cell with its own video
  /// seed. With `world_seed` set, that equals a from-boot run of the cell.
  void set_cell(int height, int fps, std::uint64_t video_seed);
  /// Phase 2: arm faults and start every session at one
  /// simulated instant. Playback deadlines begin here.
  void start();
  /// Phase 3: advance all workloads by one 1-second slice (the exact
  /// cadence the legacy run() used — slice boundaries are observable
  /// through the horizon check, so replay must reproduce them). Returns
  /// false when every session finished or the horizon passed, without
  /// advancing.
  bool advance_slice();
  bool done() const noexcept;
  /// Phase 4: disarm faults, finalize the trace and assemble per-session
  /// results.
  ScenarioResult finalize();

  // --- Replay stepping (DESIGN.md §10) -------------------------------------
  /// Offset of the clock from video start.
  sim::Time offset() const noexcept { return testbed_->engine.now() - video_start_; }
  /// Advance in 1-second slices until video start + `offset` (a whole
  /// number of seconds). Returns false if the scenario finished (or hit
  /// its horizon) before the target — the clock then rests on the last
  /// slice boundary reached. A pending perturbation is applied here
  /// only: before each slice once the clock is at or past its offset, and
  /// on reaching the target.
  bool advance_to(sim::Time offset);
  /// Test/bisection hook: at the first slice boundary >= video start +
  /// `offset` that advance_to() reaches, flip one bit of the
  /// SystemActivity RNG state — the smallest possible state corruption,
  /// invisible until the stream is next consumed. Set before start().
  void perturb_at(sim::Time offset) { perturb_at_ = offset; }
  /// Apply the one-bit RNG perturbation immediately.
  void perturb_now();
  bool perturbed() const noexcept { return perturbed_; }

  // --- Snapshot surface (component registry; DESIGN.md §11) ---------------
  void save_state(snapshot::Snapshot& snap) const;
  std::uint64_t state_digest() const;
  std::vector<std::pair<std::string, std::uint64_t>> subsystem_digests() const;

  const ScenarioSpec& spec() const noexcept { return spec_; }
  core::Testbed& testbed() noexcept { return *testbed_; }
  const core::Testbed& testbed() const noexcept { return *testbed_; }

  std::size_t video_count() const noexcept { return videos_.size(); }
  VideoSessionWorkload& video(std::size_t index = 0) { return *videos_.at(index); }
  const VideoSessionWorkload& video(std::size_t index = 0) const { return *videos_.at(index); }
  /// Session index i's fault injector; null while no plan is armed.
  fault::FaultInjector* injector(std::size_t index = 0) { return videos_.at(index)->injector(); }

  /// Simulated time at which session `index`'s playback (frame
  /// deadlines) began; -1 before then.
  sim::Time playback_start(std::size_t index = 0) const;
  /// Simulated time start() ran at (-1 before then).
  sim::Time video_start() const noexcept { return video_start_; }

 private:
  void maybe_perturb();

  ScenarioSpec spec_;
  std::unique_ptr<core::Testbed> testbed_;
  /// Phased in this order. Declared after testbed_ so that the workloads
  /// are destroyed first: their PeriodicTasks and armed FaultInjectors
  /// cancel engine events in their destructors.
  std::vector<std::unique_ptr<Workload>> workloads_;
  /// Views into workloads_, in spec order.
  std::vector<VideoSessionWorkload*> videos_;

  bool prepared_ = false;
  bool started_ = false;
  mem::PressureLevel start_level_ = mem::PressureLevel::Normal;
  sim::Time video_start_ = -1;
  sim::Time horizon_ = -1;
  std::optional<sim::Time> perturb_at_;
  bool perturbed_ = false;
};

/// Convenience single run.
ScenarioResult run_scenario(const ScenarioSpec& spec);

}  // namespace mvqoe::scenario
