#include "runner/warm_sweep.hpp"

#include "scenario/driver.hpp"
#include "stats/rng.hpp"

namespace mvqoe::runner {

void encode_cell_outcome(snapshot::ByteWriter& w, const CellRunOutcome& result) {
  w.b(result.ok);
  if (!result.ok) {
    w.str(result.error);
    return;
  }
  const qoe::RunOutcome& o = result.outcome;
  w.f64(o.drop_rate);
  w.b(o.crashed);
  w.b(o.aborted);
  w.f64(o.mean_pss_mb);
  w.f64(o.peak_pss_mb);
  w.f64(o.startup_delay_s);
  w.i32(o.relaunches);
  w.i32(o.rebuffer_events);
  w.f64(o.relaunch_downtime_s);
}

CellRunOutcome decode_cell_outcome(snapshot::ByteReader& r) {
  CellRunOutcome result;
  result.ok = r.b();
  if (!result.ok) {
    result.error = r.str();
    return result;
  }
  qoe::RunOutcome& o = result.outcome;
  o.drop_rate = r.f64();
  o.crashed = r.b();
  o.aborted = r.b();
  o.mean_pss_mb = r.f64();
  o.peak_pss_mb = r.f64();
  o.startup_delay_s = r.f64();
  o.relaunches = r.i32();
  o.rebuffer_events = r.i32();
  o.relaunch_downtime_s = r.f64();
  return result;
}

std::uint64_t sweep_group_seed(std::uint64_t base, mem::PressureLevel state, int run) noexcept {
  std::uint64_t seed = stats::derive_seed(base, 0x57524C44ULL /* "WRLD" */);
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(state) + 1);
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(run) + 1);
  return seed;
}

std::uint64_t sweep_video_seed(std::uint64_t group_seed, int height, int fps) noexcept {
  std::uint64_t seed = stats::derive_seed(group_seed, 0x56494445ULL /* "VIDE" */);
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(height));
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(fps));
  return seed;
}

namespace {

/// One (cell, run) of a sweep group, from boot: the group's world stream,
/// the cell's own video stream. The only place a sweep cell is seeded.
qoe::RunOutcome run_sweep_cell(const scenario::ScenarioSpec& proto, mem::PressureLevel state,
                               int run, int height, int fps, std::uint64_t base_seed) {
  const std::uint64_t group_seed = sweep_group_seed(base_seed, state, run);
  scenario::ScenarioSpec spec = proto;
  scenario::VideoWorkloadSpec& video = scenario::video_spec(spec);
  video.height = height;
  video.fps = fps;
  spec.state = state;
  spec.world_seed = group_seed;
  spec.seed = video.seed = sweep_video_seed(group_seed, height, fps);
  return scenario::run_scenario(spec).sessions.at(0).result.outcome;
}

}  // namespace

std::vector<CellRunOutcome> run_warm_group(const scenario::ScenarioSpec& proto,
                                           mem::PressureLevel state, int run,
                                           const std::vector<int>& fps,
                                           const std::vector<int>& heights,
                                           std::uint64_t base_seed, int workers) {
  const std::size_t per_fps = heights.size();
  const auto batch =
      run_batch(fps.size() * per_fps, workers > 0 ? workers : 1, [&](std::size_t cell) {
        return run_sweep_cell(proto, state, run, heights[cell % per_fps], fps[cell / per_fps],
                              base_seed);
      });
  std::vector<CellRunOutcome> outcomes;
  outcomes.reserve(batch.runs.size());
  for (const auto& slot : batch.runs) outcomes.push_back({slot.ok, slot.value, slot.error});
  return outcomes;
}

std::vector<SweepCellResult> run_sweep_grid_shared(
    const scenario::ScenarioSpec& proto, const std::vector<mem::PressureLevel>& states,
    const std::vector<int>& fps, const std::vector<int>& heights, int runs, int jobs,
    std::uint64_t base_seed) {
  std::vector<SweepCellResult> cells;
  if (runs <= 0) return cells;
  for (const auto state : states) {
    for (const int f : fps) {
      for (const int h : heights) {
        SweepCellResult cell;
        cell.height = h;
        cell.fps = f;
        cell.state = state;
        cell.cell_seed = sweep_video_seed(sweep_group_seed(base_seed, state, 0), h, f);
        cells.push_back(cell);
      }
    }
  }

  // Task t is (cell t / runs, run t % runs): cell-major, so the slots
  // reduce into each cell in run order.
  const auto per_cell = static_cast<std::size_t>(runs);
  const auto batch = run_batch(cells.size() * per_cell, jobs, [&](std::size_t task) {
    const SweepCellResult& cell = cells[task / per_cell];
    return run_sweep_cell(proto, cell.state, static_cast<int>(task % per_cell), cell.height,
                          cell.fps, base_seed);
  });
  for (const auto& slot : batch.runs) {
    SweepCellResult& cell = cells[slot.index / per_cell];
    if (slot.ok) {
      cell.aggregate.add(slot.value);
    } else {
      ++cell.failures;
    }
  }
  return cells;
}

}  // namespace mvqoe::runner
