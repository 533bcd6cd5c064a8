// Shared-seed sweep groups: the (fps, height) cells of one (pressure
// state, run) group boot their world from sweep_group_seed and play their
// video from sweep_video_seed, so they differ only in the video. Every
// (cell, run) runs from boot on run_batch threads (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qoe/metrics.hpp"
#include "runner/video_batch.hpp"
#include "scenario/spec.hpp"
#include "snapshot/bytes.hpp"

namespace mvqoe::runner {

/// One (cell, run) outcome: ok flag + the exact RunOutcome bit patterns,
/// so every reduction sees identical doubles. The campaign workers
/// (src/campaign) ship this encoding in their shard payloads.
struct CellRunOutcome {
  bool ok = false;
  qoe::RunOutcome outcome;
  std::string error;
};

void encode_cell_outcome(snapshot::ByteWriter& w, const CellRunOutcome& result);
CellRunOutcome decode_cell_outcome(snapshot::ByteReader& r);

/// World stream for a (state, run) sweep group: every (fps, height) cell
/// of the group boots the same world from this seed.
std::uint64_t sweep_group_seed(std::uint64_t base, mem::PressureLevel state, int run) noexcept;

/// Video stream for one cell within a group.
std::uint64_t sweep_video_seed(std::uint64_t group_seed, int height, int fps) noexcept;

/// Run every (fps, height) cell of the (state, run) group from boot,
/// `workers` at a time on run_batch threads (serially when `workers` <=
/// 1). Outcomes come back in fps-major cell order (the grid layout of
/// run_sweep_grid_shared). This is the unit of work a campaign worker
/// executes per sweep shard (src/campaign/sweep_campaign).
std::vector<CellRunOutcome> run_warm_group(const scenario::ScenarioSpec& proto,
                                           mem::PressureLevel state, int run,
                                           const std::vector<int>& fps,
                                           const std::vector<int>& heights,
                                           std::uint64_t base_seed, int workers);

/// Shared-seed sweep grid. Layout and reduction match run_sweep_grid
/// (cells in state-major grid order, runs per cell in run order); only
/// the seed scheme differs — cell_seed reports the run-0 video seed.
/// `proto` is a ScenarioSpec whose first video workload each cell
/// retargets. Every (cell, run) fans out over `jobs` run_batch threads.
std::vector<SweepCellResult> run_sweep_grid_shared(
    const scenario::ScenarioSpec& proto, const std::vector<mem::PressureLevel>& states,
    const std::vector<int>& fps, const std::vector<int>& heights, int runs, int jobs,
    std::uint64_t base_seed);

}  // namespace mvqoe::runner
