// Figure 18 (Appendix B.1): frame drops and crash rate with an
// ExoPlayer-based native app on the Nexus 5. Paper: ExoPlayer drops far
// fewer frames than Firefox (smaller memory footprint) but still crashes
// under high pressure.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mvqoe;
  bench::header("Figure 18 - ExoPlayer (native app) on Nexus 5",
                "Waheed et al., CoNEXT'22, Fig. 18 / Appendix B.1");
  const int runs = bench::runs_per_cell();
  const int duration = bench::video_duration_s();
  const int jobs = bench::jobs_from_args(argc, argv);

  bench::SweepSpec sweep;
  sweep.family = "fig18";  // Nexus 5 + ExoPlayer
  sweep.heights = {480, 720, 1080};
  const auto exo = bench::run_sweep(sweep, runs, duration, jobs, "fig18_exoplayer");
  bench::print_drop_panel(exo);
  bench::print_crash_panel(exo);

  // Appendix B's comparison point: same cells with Firefox.
  sweep.family = "fig11";  // Nexus 5 + Firefox
  const auto firefox = bench::run_sweep(sweep, runs, duration, jobs);

  bench::section("shape check: ExoPlayer vs Firefox (drops under pressure)");
  for (const auto state : {mem::PressureLevel::Moderate, mem::PressureLevel::Critical}) {
    double exo_total = 0.0;
    double firefox_total = 0.0;
    int cells = 0;
    for (const int fps : {30, 60}) {
      for (const int height : {480, 720, 1080}) {
        const auto* a = bench::find_cell(exo, height, fps, state);
        const auto* b = bench::find_cell(firefox, height, fps, state);
        if (a != nullptr && b != nullptr) {
          exo_total += a->aggregate.drop_rate().mean;
          firefox_total += b->aggregate.drop_rate().mean;
          ++cells;
        }
      }
    }
    std::printf("  %-9s mean drops: ExoPlayer %5.1f%%  Firefox %5.1f%%  -> ExoPlayer lower: %s\n",
                bench::state_name(state), 100.0 * exo_total / cells,
                100.0 * firefox_total / cells, exo_total < firefox_total ? "YES" : "NO");
  }
  double exo_crash = 0.0;
  int crash_cells = 0;
  for (const auto& cell : exo) {
    if (cell.state == mem::PressureLevel::Critical) {
      exo_crash += cell.aggregate.crash_rate_percent();
      ++crash_cells;
    }
  }
  std::printf("  ExoPlayer still crashes under Critical: mean crash rate %.0f%% (paper: "
              "\"significant crashes\")\n",
              exo_crash / crash_cells);
  return 0;
}
