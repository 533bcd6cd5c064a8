// Figure 19 (Appendix B.2): frame drops and crash rate with Chrome on
// the Nexus 5. Paper: Chrome drops fewer frames than Firefox (it is more
// memory-efficient) but also suffers significant crashes under high
// pressure.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mvqoe;
  bench::header("Figure 19 - Chrome on Nexus 5",
                "Waheed et al., CoNEXT'22, Fig. 19 / Appendix B.2");
  const int runs = bench::runs_per_cell();
  const int duration = bench::video_duration_s();
  const int jobs = runner::jobs_from_args(argc, argv);

  bench::SweepSpec sweep;
  sweep.family = "fig19";  // Nexus 5 + Chrome
  sweep.heights = {480, 720, 1080};
  const auto chrome = bench::run_sweep(sweep, runs, duration, jobs, "fig19_chrome");
  bench::print_drop_panel(chrome);
  bench::print_crash_panel(chrome);

  sweep.family = "fig11";  // Nexus 5 + Firefox
  const auto firefox = bench::run_sweep(sweep, runs, duration, jobs);

  bench::section("shape check: Chrome vs Firefox (drops under pressure)");
  for (const auto state : {mem::PressureLevel::Moderate, mem::PressureLevel::Critical}) {
    double chrome_total = 0.0;
    double firefox_total = 0.0;
    int cells = 0;
    for (const int fps : {30, 60}) {
      for (const int height : {480, 720, 1080}) {
        const auto* a = bench::find_cell(chrome, height, fps, state);
        const auto* b = bench::find_cell(firefox, height, fps, state);
        if (a != nullptr && b != nullptr) {
          chrome_total += a->aggregate.drop_rate().mean;
          firefox_total += b->aggregate.drop_rate().mean;
          ++cells;
        }
      }
    }
    std::printf("  %-9s mean drops: Chrome %5.1f%%  Firefox %5.1f%%  -> Chrome lower: %s\n",
                bench::state_name(state), 100.0 * chrome_total / cells,
                100.0 * firefox_total / cells, chrome_total < firefox_total ? "YES" : "NO");
  }
  return 0;
}
