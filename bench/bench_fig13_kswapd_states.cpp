// Figure 13: percentage of time kswapd spends in each process state
// under Normal vs Moderate pressure (Nokia 1, 720p60). Paper: sleeping
// falls from 75% to 31%, running rises from 6% to 56%, and kswapd
// becomes the most-running thread on the device under Moderate.
#include "bench_util.hpp"
#include "trace/analysis.hpp"

int main() {
  using namespace mvqoe;
  bench::header("Figure 13 - kswapd process states, Normal vs Moderate (Nokia 1, 720p60)",
                "Waheed et al., CoNEXT'22, Fig. 13 / Sec. 5 'Top running threads'");
  const int duration = bench::video_duration_s();

  auto run_once = [&](mem::PressureLevel state) {
    // 720p: our model expresses the paper's 480p60-Moderate degradation
    // one rung higher; same mechanisms, documented in EXPERIMENTS.md.
    auto driver = std::make_unique<scenario::ScenarioDriver>(
        scenario::single_video("fig09", 720, 60, duration, state, 11), trace::TraceLevel::Full);
    driver->run();
    return driver;
  };

  const mem::PressureLevel states[] = {mem::PressureLevel::Normal, mem::PressureLevel::Moderate};
  double running_pct[2] = {0, 0};
  double sleeping_pct[2] = {0, 0};
  std::size_t kswapd_rank[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const auto driver = run_once(states[i]);
    const auto& tracer = driver->testbed().tracer;
    const auto kswapd_tid = driver->testbed().memory.kswapd_tid();
    const auto fractions = trace::state_fractions(tracer, kswapd_tid, driver->playback_start());

    bench::section(std::string(bench::state_name(states[i])) + " - kswapd state shares");
    for (const auto& [name, fraction] : fractions) {
      std::printf("  %-22s %5.1f%% |%s\n", name.c_str(), 100.0 * fraction,
                  stats::ascii_bar(fraction, 30).c_str());
    }
    const auto running = fractions.find("Running");
    const auto sleeping = fractions.find("Sleeping");
    running_pct[i] = running != fractions.end() ? 100.0 * running->second : 0.0;
    sleeping_pct[i] = sleeping != fractions.end() ? 100.0 * sleeping->second : 0.0;
    kswapd_rank[i] = trace::running_rank(tracer, "kswapd0", driver->playback_start());

    const auto top = trace::top_running_threads(tracer, driver->playback_start());
    std::printf("  top running threads:\n");
    for (std::size_t t = 0; t < std::min<std::size_t>(6, top.size()); ++t) {
      std::printf("    #%zu %-28s %6.2fs\n", top[t].rank, top[t].name.c_str(),
                  top[t].running_seconds);
    }
  }

  bench::section("paper-vs-measured");
  bench::compare("kswapd %time Sleeping @ Normal", 75.0, sleeping_pct[0], "%");
  bench::compare("kswapd %time Sleeping @ Moderate", 31.0, sleeping_pct[1], "%");
  bench::compare("kswapd %time Running @ Normal", 6.0, running_pct[0], "%");
  bench::compare("kswapd %time Running @ Moderate", 56.0, running_pct[1], "%");
  std::printf("  kswapd running-time rank: Normal #%zu (paper #14), Moderate #%zu (paper #1)\n",
              kswapd_rank[0], kswapd_rank[1]);
  return 0;
}
