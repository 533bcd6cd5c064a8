// Batch execution of seeded single-video scenarios (the paper's
// repeated-run methodology, §4.1) on the thread-pool runner.
//
// Determinism contract:
//  - run i of a batch uses seed stats::derive_seed(batch_seed, i + 1) for
//    both the world and the first video stream, so every worker count
//    (jobs == 1 is the serial case) sees run i with the identical seed;
//  - sweep cells derive their base seed from the cell coordinates via
//    chained derive_seed streams (collision-free, unlike the old additive
//    `1000 + height + fps + state*7` bench formula where distinct tuples
//    aliased to the same seed and correlated runs);
//  - results and aggregates are reduced in run-index order regardless of
//    which worker finishes first.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/batch.hpp"
#include "runner/json_writer.hpp"
#include "scenario/driver.hpp"

namespace mvqoe::runner {

/// Collision-free per-cell seed for a (height, fps, pressure-state) sweep
/// cell: chained derive_seed streams, one coordinate per level.
std::uint64_t sweep_cell_seed(std::uint64_t base, int height, int fps,
                              mem::PressureLevel state) noexcept;

struct VideoBatch {
  /// Per-run results in run-index order (slot.ok == false carries the
  /// structured failure of a run that threw; the rest still complete).
  std::vector<RunSlot<core::VideoRunResult>> runs;
  /// Aggregate over the successful runs, added in run-index order.
  qoe::RunAggregate aggregate;
  int jobs_used = 1;
  std::size_t failures = 0;
};

/// Run `runs` seeded repetitions of `spec` across `jobs` workers (0 =>
/// MVQOE_JOBS / hardware). spec.seed is the batch seed; run i sets both
/// spec.seed and the first video workload's seed to
/// derive_seed(spec.seed, i + 1). Each run reports the first video
/// session's result. jobs == 1 is the byte-identical serial case.
VideoBatch run_video_batch(const scenario::ScenarioSpec& spec, int runs, int jobs);

/// One cell of a sweep grid plus its aggregated outcome.
struct SweepCellResult {
  int height = 0;
  int fps = 0;
  mem::PressureLevel state{};
  std::uint64_t cell_seed = 0;
  qoe::RunAggregate aggregate;
  std::size_t failures = 0;
};

/// Run a full device sweep grid (states x fps x heights, the bench layout)
/// with `runs` repetitions per cell, fanned out over `jobs` workers at
/// (cell, run) granularity so small grids still use every core. `proto`
/// must carry at least one video workload; each cell retargets the first
/// one's height/fps, the scenario state, and (run r) both seeds to
/// derive_seed(cell_seed, r + 1). Cells come back in grid order, runs
/// within a cell in run-index order.
std::vector<SweepCellResult> run_sweep_grid(const scenario::ScenarioSpec& proto,
                                            const std::vector<mem::PressureLevel>& states,
                                            const std::vector<int>& fps,
                                            const std::vector<int>& heights, int runs, int jobs,
                                            std::uint64_t base_seed);

/// Serialize one run's QoE outcome (full double precision — the payload
/// the parallel-vs-serial byte-identity tests compare).
void write_run_outcome(JsonWriter& w, const qoe::RunOutcome& outcome);

/// The BENCH_<name>.json payload as a string — what write_sweep_json
/// writes. Exposed so byte-identity checks (a campaign grid vs the
/// in-process one) can compare payloads without touching the filesystem.
std::string sweep_json(std::string_view bench_name, const std::vector<SweepCellResult>& cells,
                       int runs, int jobs_used, std::uint64_t base_seed);

/// Serialize a sweep to BENCH_<name>.json: per-cell aggregates (drop-rate
/// mean/CI, crash/relaunch rates, PSS) plus per-run outcomes and a
/// drop-rate histogram rollup. Returns the path written, or "" on I/O
/// failure.
std::string write_sweep_json(std::string_view bench_name,
                             const std::vector<SweepCellResult>& cells, int runs, int jobs_used,
                             std::uint64_t base_seed);

}  // namespace mvqoe::runner
