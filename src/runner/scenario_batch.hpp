// Multi-session scenario grids (DESIGN.md §11) on the thread-pool runner.
//
// run_contention_grid runs N concurrent video sessions contending inside
// one simulated device per cell, with per-session QoE attribution. The
// determinism contract of runner/video_batch applies: results are
// independent of worker count (--jobs N equals serial byte-for-byte).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runner/video_batch.hpp"
#include "scenario/driver.hpp"

namespace mvqoe::runner {

/// Collision-free per-cell seed for a (session-count, state) contention
/// cell (chained derive_seed streams, like sweep_cell_seed).
std::uint64_t contention_cell_seed(std::uint64_t base, int sessions,
                                   mem::PressureLevel state) noexcept;

/// Video stream for session k of one contention run.
std::uint64_t contention_session_seed(std::uint64_t run_seed, std::size_t session) noexcept;

/// One cell of a contention grid: `sessions` concurrent video sessions on
/// one device under `state`, repeated `runs` times, QoE attributed per
/// session label (video0, video1, ...).
struct ContentionCellResult {
  int sessions = 0;
  mem::PressureLevel state{};
  std::uint64_t cell_seed = 0;
  qoe::SessionBreakdown breakdown;
  std::size_t failures = 0;
};

/// Run a (session_counts x states) contention grid. `proto` supplies the
/// device/family and the video template (its first video workload is
/// cloned per session, labelled video<k>, each with its own derived
/// stream). Fan-out is at (cell, run) granularity across `jobs` workers;
/// reduction is in deterministic grid/run/session order.
std::vector<ContentionCellResult> run_contention_grid(
    const scenario::ScenarioSpec& proto, const std::vector<int>& session_counts,
    const std::vector<mem::PressureLevel>& states, int runs, int jobs, std::uint64_t base_seed);

/// The BENCH_<name>.json payload for a contention grid — exposed as a
/// string so byte-identity checks (--jobs N vs serial) can compare
/// payloads without touching the filesystem.
std::string contention_json(std::string_view bench_name,
                            const std::vector<ContentionCellResult>& cells, int runs,
                            int jobs_used, std::uint64_t base_seed);

}  // namespace mvqoe::runner
