// App contention example (DESIGN.md §11): a declarative ScenarioSpec
// hosting two workloads on one simulated device — a video player and an
// extra memory hog pushing the device toward critical pressure — plus an
// optional second player contending for the same pages, CPU and link.
// Each session gets its own QoE attribution in the scenario result.
//
//   $ ./examples/app_contention [sessions]
#include <cstdio>

#include "runner/batch.hpp"
#include "scenario/driver.hpp"

int main(int argc, char** argv) {
  using namespace mvqoe;
  const int sessions = runner::parse_arg(argc, argv, 1, "sessions", 2, 1);

  // Declarative world: Nokia 1 at moderate ambient pressure, one memory
  // hog driving toward critical, and N players watching the same clip
  // with derived per-session seeds.
  scenario::ScenarioSpec spec;
  spec.family = "fig16";  // Nokia 1 + Firefox
  spec.state = mem::PressureLevel::Moderate;
  spec.seed = 5;

  scenario::PressureWorkloadSpec hog;
  hog.label = "memory-hog";
  hog.target = mem::PressureLevel::Critical;
  spec.workloads.emplace_back(hog);

  for (int k = 0; k < sessions; ++k) {
    scenario::VideoWorkloadSpec video;
    video.label = "video" + std::to_string(k);
    video.height = 480;
    video.fps = 30;
    video.duration_s = 30;
    video.seed = scenario::contention_session_seed(spec.seed, static_cast<std::size_t>(k));
    spec.workloads.emplace_back(std::move(video));
  }

  const scenario::ScenarioResult result = scenario::run_scenario(spec);

  std::printf("Nokia 1, %d x 480p30 player(s) + memory hog:\n", sessions);
  std::printf("  pressure at session start  : %s\n", mem::to_string(result.start_level));
  std::printf("  scenario status            : %s\n\n", core::to_string(result.status));
  std::printf("  %-8s %-10s %9s %9s %10s %9s\n", "session", "status", "drops", "startup",
              "rebuffers", "pss MB");
  for (const scenario::SessionReport& session : result.sessions) {
    const qoe::RunOutcome& outcome = session.result.outcome;
    std::printf("  %-8s %-10s %8.1f%% %8.2fs %10d %9.1f\n", session.label.c_str(),
                core::to_string(session.result.status), 100.0 * outcome.drop_rate,
                outcome.startup_delay_s, outcome.rebuffer_events, outcome.mean_pss_mb);
  }
  std::printf("\nRe-run with 1 session to see the uncontended baseline.\n");
  return 0;
}
