// Organic pressure example (§4.3): instead of the synthetic allocator,
// open real background apps before the video — the way pressure arises
// in the wild — and watch the kill churn while the video plays.
//
//   $ ./examples/organic_pressure [background_apps]
#include <cstdio>

#include "runner/batch.hpp"
#include "scenario/driver.hpp"
#include "trace/analysis.hpp"

int main(int argc, char** argv) {
  using namespace mvqoe;
  const int apps = runner::parse_arg(argc, argv, 1, "background_apps", 8, 0);

  auto spec = scenario::single_video("fig09", 480, 60, 60, mem::PressureLevel::Normal, 5);
  spec.organic_background_apps = apps;
  scenario::ScenarioDriver driver(spec);
  const auto result = driver.run().sessions.at(0).result;

  std::printf("Nokia 1, 480p60 with %d background apps:\n", apps);
  std::printf("  pressure at playback start : %s\n", mem::to_string(result.start_level));
  std::printf("  frame drop rate            : %.1f%%\n", 100.0 * result.outcome.drop_rate);
  std::printf("  crashed                    : %s\n", result.outcome.crashed ? "yes" : "no");

  const auto kills = trace::cumulative_instants(driver.testbed().tracer,
                                                trace::InstantKind::ProcessKilled);
  std::printf("  processes killed (total)   : %zu\n", kills.empty() ? 0 : kills.back());

  std::printf("\nkill timeline (cumulative, every 5s):\n");
  for (std::size_t second = 0; second < kills.size(); second += 5) {
    std::printf("  t=%3zus  %3zu killed\n", second, kills[second]);
  }
  std::printf("\nRe-run with 0 background apps to see the quiet baseline.\n");
  return 0;
}
