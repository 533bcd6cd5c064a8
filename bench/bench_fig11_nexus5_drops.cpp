// Figure 11 + Table 3: frame drops and crash rates on the Nexus 5
// (2 GB). Paper: no drops at 30 FPS for 240-480p; significant drops at
// 60 FPS high resolutions (17% at 1080p60 under Critical, up to 25%
// overall); Table 3 crash rates: Moderate {720p30: 10, 1080p30: 100,
// 480p60: 0, 720p60: 100}, Critical {100, 100, 70, 100}.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mvqoe;
  bench::header("Figure 11 + Table 3 - Nexus 5 (2 GB) frame drops & crash rates",
                "Waheed et al., CoNEXT'22, Fig. 11 and Table 3");
  const int runs = bench::runs_per_cell();
  const int duration = bench::video_duration_s();
  const int jobs = runner::jobs_from_args(argc, argv);

  bench::SweepSpec sweep;
  sweep.family = "fig11";
  const auto cells = bench::run_sweep(sweep, runs, duration, jobs, "fig11_nexus5_drops");
  bench::print_drop_panel(cells);
  bench::print_crash_panel(cells);

  bench::section("paper-vs-measured anchors");
  using mem::PressureLevel;
  for (const int height : {240, 360, 480}) {
    if (const auto* cell = bench::find_cell(cells, height, 30, PressureLevel::Moderate)) {
      bench::compare("30FPS low-res drops @ Moderate (" + std::to_string(height) + "p)", 0.0,
                     100.0 * cell->aggregate.drop_rate().mean, "%");
    }
  }
  if (const auto* cell = bench::find_cell(cells, 1080, 60, PressureLevel::Critical)) {
    bench::compare("1080p60 drops @ Critical", 17.0, 100.0 * cell->aggregate.drop_rate().mean,
                   "%");
  }
  const struct {
    int height;
    int fps;
    PressureLevel state;
    double paper;
  } crash_anchors[] = {
      {720, 30, PressureLevel::Moderate, 10.0},  {1080, 30, PressureLevel::Moderate, 100.0},
      {480, 60, PressureLevel::Moderate, 0.0},   {720, 60, PressureLevel::Moderate, 100.0},
      {720, 30, PressureLevel::Critical, 100.0}, {1080, 30, PressureLevel::Critical, 100.0},
      {480, 60, PressureLevel::Critical, 70.0},  {720, 60, PressureLevel::Critical, 100.0},
  };
  for (const auto& anchor : crash_anchors) {
    if (const auto* cell = bench::find_cell(cells, anchor.height, anchor.fps, anchor.state)) {
      bench::compare("Table 3: crash @ " + std::string(bench::state_name(anchor.state)) + " " +
                         std::to_string(anchor.height) + "p" + std::to_string(anchor.fps),
                     anchor.paper, cell->aggregate.crash_rate_percent(), "%");
    }
  }
  return 0;
}
