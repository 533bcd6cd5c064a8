// Shared helpers for the per-figure/table bench binaries. Each binary
// regenerates one table or figure from the paper and prints the same
// rows/series the paper reports, with the paper's reported values beside
// the measured ones where the paper states them.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "runner/video_batch.hpp"

namespace mvqoe::bench {

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================================\n");
}

inline void section(const std::string& name) {
  std::printf("\n--- %s ---\n", name.c_str());
}

/// Paper-vs-measured line for EXPERIMENTS.md cross-checking.
inline void compare(const std::string& what, double paper, double measured,
                    const std::string& unit) {
  std::printf("  %-52s paper: %8.1f %-4s measured: %8.1f %s\n", what.c_str(), paper,
              unit.c_str(), measured, unit.c_str());
}

/// Number of repetitions per experiment cell. The paper uses five; the
/// MVQOE_RUNS environment variable can lower it for quick smoke runs.
inline int runs_per_cell(int fallback = 5) {
  const char* env = std::getenv("MVQOE_RUNS");
  return env != nullptr ? runner::parse_positive<int>(env, "MVQOE_RUNS") : fallback;
}

/// Video duration (seconds) used by the sweep benches. The paper streams
/// a few minutes; 60 simulated seconds keeps the full suite fast while
/// giving every mechanism time to express itself.
inline int video_duration_s(int fallback = 60) {
  const char* env = std::getenv("MVQOE_DURATION_S");
  return env != nullptr ? runner::parse_positive<int>(env, "MVQOE_DURATION_S") : fallback;
}

/// Shared sweep for the Fig 9/11/18/19 drop panels and Table 2/3 crash
/// tables: one scenario family (device x platform) x {resolutions} x
/// {30,60} x pressure states.
struct SweepSpec {
  std::string family;
  std::vector<int> heights = {240, 360, 480, 720, 1080};
  std::vector<int> fps = {30, 60};
  std::vector<mem::PressureLevel> states = {mem::PressureLevel::Normal,
                                            mem::PressureLevel::Moderate,
                                            mem::PressureLevel::Critical};
  /// Batch seed; per-cell seeds are derive_seed streams off this (the old
  /// additive `1000 + height + fps + state*7` formula let distinct cells
  /// alias to the same seed and correlate their runs).
  std::uint64_t base_seed = 1000;
};

/// Run the grid on the batch runner: (cell, run) tasks fan out across
/// `jobs` workers, results reduce in deterministic grid/run order. When a
/// json_name is given the cells are also dumped to BENCH_<json_name>.json.
inline std::vector<runner::SweepCellResult> run_sweep(const SweepSpec& sweep, int runs,
                                                      int duration_s, int jobs = 0,
                                                      const char* json_name = nullptr) {
  // Each grid cell retargets the proto's height/fps/state/seed.
  const auto proto = scenario::single_video(sweep.family, 1080, 30, duration_s,
                                            mem::PressureLevel::Normal, sweep.base_seed);
  auto grid = runner::run_sweep_grid(proto, sweep.states, sweep.fps, sweep.heights, runs,
                                     jobs, sweep.base_seed);
  if (json_name != nullptr) {
    const std::string path =
        runner::write_sweep_json(json_name, grid, runs, runner::resolve_jobs(jobs),
                                 sweep.base_seed);
    if (!path.empty()) std::printf("machine-readable: %s\n", path.c_str());
  }
  return grid;
}

inline const char* state_name(mem::PressureLevel level) { return mem::to_string(level); }

inline void print_drop_panel(const std::vector<runner::SweepCellResult>& cells) {
  section("mean frame-drop rate, % (95% CI), played portion");
  std::printf("  %-9s %-4s", "state", "fps");
  for (const auto& cell : cells) {
    if (cell.state == cells.front().state && cell.fps == cells.front().fps) {
      std::printf("  %10dp", cell.height);
    }
  }
  std::printf("\n");
  mem::PressureLevel state = cells.front().state;
  int fps = -1;
  for (const auto& cell : cells) {
    if (cell.fps != fps || cell.state != state) {
      state = cell.state;
      fps = cell.fps;
      std::printf("\n  %-9s %-4d", state_name(state), fps);
    }
    const auto drop = cell.aggregate.drop_rate();
    std::printf("  %5.1f±%-4.1f", 100.0 * drop.mean, 100.0 * drop.ci95);
  }
  std::printf("\n");
}

inline void print_crash_panel(const std::vector<runner::SweepCellResult>& cells) {
  section("client crash rate, % of runs");
  mem::PressureLevel state = cells.front().state;
  int fps = -1;
  std::printf("  %-9s %-4s\n", "state", "fps");
  for (const auto& cell : cells) {
    if (cell.fps != fps || cell.state != state) {
      state = cell.state;
      fps = cell.fps;
      std::printf("\n  %-9s %-4d", state_name(state), fps);
    }
    std::printf("  %5.0f%%    ", cell.aggregate.crash_rate_percent());
  }
  std::printf("\n");
}

inline const runner::SweepCellResult* find_cell(const std::vector<runner::SweepCellResult>& cells,
                                                int height, int fps, mem::PressureLevel state) {
  for (const auto& cell : cells) {
    if (cell.height == height && cell.fps == fps && cell.state == state) return &cell;
  }
  return nullptr;
}

}  // namespace mvqoe::bench
