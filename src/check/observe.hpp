// World observation for the invariant oracle suite (DESIGN.md §12).
//
// The fuzz harness evaluates oracles at every advance_slice boundary. To
// keep the oracles pure — unit-testable against synthetic corrupted
// worlds, with no live simulator in the loop — the harness first
// condenses the driver's observable surface into one WorldObservation
// struct per slice: memory pools and watermark state, per-thread
// scheduler state and vruntimes, the tracer intervals and kill audits
// that appeared since the previous slice, and per-video frame counters.
// Oracles consume only these structs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/memory_manager.hpp"
#include "scenario/driver.hpp"
#include "sched/scheduler.hpp"
#include "trace/tracer.hpp"

namespace mvqoe::check {

struct ThreadObs {
  sched::ThreadId tid = 0;
  trace::ThreadState state = trace::ThreadState::Created;
  double vruntime = 0.0;
};

struct VideoObs {
  std::string label;
  std::int64_t presented = 0;
  std::int64_t dropped = 0;
  std::int64_t lost_to_kill = 0;
  /// Fixed-ladder asset frame count; 0 when unknown (ABR in play).
  std::int64_t frame_total = 0;
  bool finished = false;
  bool crashed = false;
  bool aborted = false;
  int relaunches = 0;
};

struct MemObs {
  mem::Pages total = 0;
  mem::Pages kernel_reserved = 0;
  mem::Pages free = 0;
  mem::Pages available = 0;
  mem::Pages anon = 0;
  mem::Pages file = 0;
  mem::Pages zram_stored = 0;
  mem::Pages zram_capacity = 0;
  mem::Pages wm_min = 0;
  mem::Pages wm_low = 0;
  mem::Pages wm_high = 0;
  bool kswapd_active = false;
  std::uint64_t kswapd_wakeups = 0;
  double pressure = 0.0;
  bool conservation_ok = true;
  std::string conservation_detail;
  /// The active kill policy's declared decision rules (constant for the
  /// run) — the kill-ordering oracle replays every lmkd decision with
  /// mem::replay_kill_floor(charter, ...) plus each KillAudit's inputs,
  /// so the legality rules follow whatever policy the world runs instead
  /// of hard-coding baseline Android's bands.
  mem::KillCharter charter;
};

struct EngineObs {
  bool invariants_ok = true;
  std::uint64_t livelock_trips = 0;
  std::size_t pending_events = 0;
};

struct NetFlowObs {
  std::uint64_t id = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t inflight_bytes = 0;
  double cwnd_bytes = 0.0;
  double pacing_bytes_per_usec = 0.0;
};

struct NetObs {
  /// False on the serial fifo link; the net oracles only engage when a
  /// congestion-controlled flow engine is actually running.
  bool cc_mode = false;
  std::string cc;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t retired_delivered = 0;
  std::uint64_t backlog_bytes = 0;
  std::uint64_t queue_capacity_bytes = 0;
  std::vector<NetFlowObs> flows;
};

struct WorldObservation {
  sim::Time at = 0;
  sim::Time offset = 0;  ///< from video start
  bool final_obs = false;
  EngineObs engine;
  MemObs mem;
  NetObs net;
  std::vector<ThreadObs> threads;
  /// Tracer state intervals closed since the previous observation.
  std::vector<trace::StateInterval> new_intervals;
  /// Kill audits recorded since the previous observation.
  std::vector<mem::MemoryManager::KillAudit> new_kills;
  std::vector<VideoObs> videos;
};

/// Incremental collector: holds the cursors into the tracer's interval
/// log and the memory manager's kill-audit log, so each observation
/// carries only what is new since the last one. One observer per run.
/// observe() throws std::logic_error on a world whose tracer is not at
/// `Full`: the sched-state oracle would see no intervals and pass.
class WorldObserver {
 public:
  WorldObservation observe(const scenario::ScenarioDriver& driver, bool final_obs = false);

 private:
  std::size_t interval_cursor_ = 0;
  std::size_t kill_cursor_ = 0;
};

}  // namespace mvqoe::check
