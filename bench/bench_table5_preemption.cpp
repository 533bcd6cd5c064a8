// Table 5: statistics for preemptions of video client threads by mmcqd
// under Normal vs Moderate pressure (Nokia 1, 720p60). Paper: the number
// of preemptions grows 26.6x, mmcqd's run-after-preempt 16.8x, and the
// client's wait to regain the CPU 27.5x; mmcqd becomes the top thread on
// all three statistics.
#include "bench_util.hpp"
#include "trace/analysis.hpp"

namespace {

mvqoe::trace::PreemptionStats run_once(mvqoe::mem::PressureLevel state, std::uint64_t seed,
                                       int duration) {
  using namespace mvqoe;
  // 720p: our model expresses the paper's 480p60-Moderate degradation
  // one rung higher; same mechanisms, documented in EXPERIMENTS.md.
  scenario::ScenarioDriver driver(scenario::single_video("fig09", 720, 60, duration, state, seed),
                                  trace::TraceLevel::Full);
  driver.run();
  const video::VideoSession& session = *driver.video().session();
  std::vector<trace::ThreadId> tids = session.client_thread_ids();
  tids.push_back(session.surfaceflinger_tid());
  return trace::preemption_stats(driver.testbed().tracer, tids, "mmcqd");
}

}  // namespace

int main() {
  using namespace mvqoe;
  bench::header("Table 5 - mmcqd preemptions of video threads, Normal vs Moderate (Nokia 1)",
                "Waheed et al., CoNEXT'22, Table 5");
  const int runs = bench::runs_per_cell(3);
  const int duration = bench::video_duration_s();

  stats::Accumulator normal[3];
  stats::Accumulator moderate[3];
  for (int i = 0; i < runs; ++i) {
    const auto n = run_once(mem::PressureLevel::Normal, 100 + i, duration);
    const auto m = run_once(mem::PressureLevel::Moderate, 200 + i, duration);
    normal[0].add(static_cast<double>(n.count));
    normal[1].add(n.preemptor_run_seconds);
    normal[2].add(n.victim_wait_seconds);
    moderate[0].add(static_cast<double>(m.count));
    moderate[1].add(m.preemptor_run_seconds);
    moderate[2].add(m.victim_wait_seconds);
    std::fflush(stdout);
  }

  const char* rows[] = {"Mean number of preemptions", "Mean time mmcqd runs after preemption",
                        "Mean time video client waits to get CPU back"};
  const double paper_factor[] = {26.6, 16.8, 27.5};
  std::printf("\n%-46s  %10s  %10s  %8s  (paper x)\n", "", "Normal", "Moderate", "factor");
  for (int i = 0; i < 3; ++i) {
    const double n = normal[i].mean();
    const double m = moderate[i].mean();
    const double factor = n > 0 ? m / n : 0.0;
    if (i == 0) {
      std::printf("%-46s  %10.1f  %10.1f  %7.1fx  (%.1fx)\n", rows[i], n, m, factor,
                  paper_factor[i]);
    } else {
      std::printf("%-46s  %9.2fs  %9.2fs  %7.1fx  (%.1fx)\n", rows[i], n, m, factor,
                  paper_factor[i]);
    }
  }
  std::printf("\nShape check (paper): every mmcqd preemption statistic grows by an order of\n"
              "magnitude under Moderate pressure (reclaim-driven I/O at realtime priority).\n");
  return 0;
}
