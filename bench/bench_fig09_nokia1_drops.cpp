// Figure 9 + Table 2: frame drops and crash rates on the Nokia 1 (1 GB)
// across resolutions, frame rates and pressure states. Paper anchors:
// 1080p30 drops 19% Normal / 53% Moderate / ~100% Critical; Table 2
// crash rates: Moderate 40% @480p, 100% @720p; Critical 100% everywhere.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mvqoe;
  bench::header("Figure 9 + Table 2 - Nokia 1 (1 GB) frame drops & crash rates",
                "Waheed et al., CoNEXT'22, Fig. 9 and Table 2");
  const int runs = bench::runs_per_cell();
  const int duration = bench::video_duration_s();
  const int jobs = runner::jobs_from_args(argc, argv);

  bench::SweepSpec sweep;
  sweep.family = "fig09";
  const auto cells = bench::run_sweep(sweep, runs, duration, jobs, "fig09_nokia1_drops");
  bench::print_drop_panel(cells);
  bench::print_crash_panel(cells);

  bench::section("paper-vs-measured anchors");
  using mem::PressureLevel;
  if (const auto* cell = bench::find_cell(cells, 1080, 30, PressureLevel::Normal)) {
    bench::compare("1080p30 drops @ Normal", 19.0, 100.0 * cell->aggregate.drop_rate().mean, "%");
  }
  if (const auto* cell = bench::find_cell(cells, 1080, 30, PressureLevel::Moderate)) {
    bench::compare("1080p30 drops @ Moderate", 53.0, 100.0 * cell->aggregate.drop_rate().mean,
                   "%");
  }
  if (const auto* cell = bench::find_cell(cells, 1080, 30, PressureLevel::Critical)) {
    bench::compare("1080p30 drops @ Critical", 100.0, 100.0 * cell->aggregate.drop_rate().mean,
                   "%");
  }
  if (const auto* cell = bench::find_cell(cells, 480, 30, PressureLevel::Moderate)) {
    bench::compare("Table 2: crash rate @ Moderate 480p30", 40.0,
                   cell->aggregate.crash_rate_percent(), "%");
  }
  if (const auto* cell = bench::find_cell(cells, 720, 30, PressureLevel::Moderate)) {
    bench::compare("Table 2: crash rate @ Moderate 720p30", 100.0,
                   cell->aggregate.crash_rate_percent(), "%");
  }
  for (const int fps : {30, 60}) {
    for (const int height : {480, 720}) {
      if (const auto* cell = bench::find_cell(cells, height, fps, PressureLevel::Critical)) {
        bench::compare("Table 2: crash rate @ Critical " + std::to_string(height) + "p" +
                           std::to_string(fps),
                       100.0, cell->aggregate.crash_rate_percent(), "%");
      }
    }
  }
  // High-resolution average under pressure (Table 1: "> 75% average
  // frame drops for high resolution videos (720p, 1080p)").
  double high_res = 0.0;
  int high_res_cells = 0;
  for (const auto state : {PressureLevel::Moderate, PressureLevel::Critical}) {
    for (const int fps : {30, 60}) {
      for (const int height : {720, 1080}) {
        if (const auto* cell = bench::find_cell(cells, height, fps, state)) {
          high_res += 100.0 * cell->aggregate.drop_rate().mean;
          ++high_res_cells;
        }
      }
    }
  }
  if (high_res_cells > 0) {
    bench::compare("mean drops, high-res (720/1080p) under pressure", 75.0,
                   high_res / high_res_cells, "%");
  }
  return 0;
}
