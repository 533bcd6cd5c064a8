// Fault storm: drive one 60 s playback session through a scripted storm
// — link outage, thermal throttle, lmkd-style kill with relaunch — and
// print the QoE delta against a clean run of the same seed. Both runs go
// through the check suite (every oracle at every 1 s slice); the example
// exits 1 if an oracle trips or the storm's frame identity does not close.
//
//   $ ./examples/fault_storm [height] [fps]
//
// Storm timeline (relative to video start):
//   t=8 s    5 s full link outage (downloads freeze, then resume)
//   t=18 s   8 s thermal-throttle window, every core at 55% speed
//   t=30 s   targeted kill of the video client; the session relaunches
//            cold after 2.5 s and resumes at the next segment boundary
#include <cstdio>

#include "check/harness.hpp"
#include "runner/batch.hpp"
#include "scenario/driver.hpp"

namespace {

mvqoe::check::RunReport run(int height, int fps, bool storm) {
  using namespace mvqoe;
  fault::FaultPlan plan;
  if (storm) {
    plan.link_outages.push_back({sim::sec(8), sim::sec(5)});
    plan.thermal_windows.push_back({sim::sec(18), sim::sec(8), 0.55});
    plan.kills.push_back({sim::sec(30), 0});
  }
  // "fig11" is the paper's Nexus 5 + Firefox setup.
  auto spec = scenario::single_video("fig11", height, fps, /*duration_s=*/60,
                                     mem::PressureLevel::Normal, /*seed=*/7, std::move(plan));
  if (storm) {
    video::RecoveryConfig recovery;
    recovery.relaunch_on_kill = true;
    scenario::video_spec(spec).recovery = recovery;
  }
  return check::check_scenario(spec, {.meta_determinism = false});
}

void print_run(const char* label, const mvqoe::core::VideoRunResult& r) {
  std::printf("%-10s status=%-9s presented=%4lld dropped=%4lld lost-to-kill=%4lld"
              " drop=%5.1f%% relaunches=%d rebuffers=%d downtime=%.2fs startup=%.2fs\n",
              label, mvqoe::core::to_string(r.status),
              static_cast<long long>(r.metrics.frames_presented),
              static_cast<long long>(r.metrics.frames_dropped),
              static_cast<long long>(r.metrics.frames_lost_to_kill),
              100.0 * r.outcome.drop_rate, r.metrics.relaunches, r.metrics.rebuffer_events,
              r.outcome.relaunch_downtime_s, r.outcome.startup_delay_s);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mvqoe;
  const int height = runner::parse_arg(argc, argv, 1, "height", 480, 1);
  const int fps = runner::parse_arg(argc, argv, 2, "fps", 30, 1);

  std::printf("fault storm vs clean run: Nexus 5, %dp%d, 60 s\n", height, fps);
  std::printf("storm: outage 8-13 s, thermal 18-26 s @ 0.55x, kill at 30 s (relaunch on)\n\n");

  const check::RunReport clean_run = run(height, fps, false);
  const check::RunReport storm_run = run(height, fps, true);
  for (const check::RunReport* report : {&clean_run, &storm_run}) {
    if (report->ok) continue;
    const check::Violation& v = *report->violation;
    std::printf("oracle %s tripped in the %s run at +%.0fs: %s\n", v.oracle.c_str(),
                report == &clean_run ? "clean" : "storm", sim::to_seconds(v.offset),
                v.detail.c_str());
    return 1;
  }
  const core::VideoRunResult& clean = clean_run.result.sessions.at(0).result;
  const core::VideoRunResult& storm = storm_run.result.sessions.at(0).result;

  print_run("clean:", clean);
  print_run("storm:", storm);

  const int asset_frames = 60 * fps;
  const std::int64_t total = storm.metrics.frames_presented + storm.metrics.frames_dropped +
                             storm.metrics.frames_lost_to_kill;
  std::printf("\nframe identity (storm): %lld presented + %lld dropped + %lld lost = %lld"
              " (asset: %d)\n",
              static_cast<long long>(storm.metrics.frames_presented),
              static_cast<long long>(storm.metrics.frames_dropped),
              static_cast<long long>(storm.metrics.frames_lost_to_kill),
              static_cast<long long>(total), asset_frames);
  std::printf("QoE delta: drop rate %+.1f pp, %d kill(s) absorbed, %.2f s of downtime,\n"
              "           %zu oracles clean at every 1 s slice of both runs\n",
              100.0 * (storm.outcome.drop_rate - clean.outcome.drop_rate),
              storm.metrics.relaunches, storm.outcome.relaunch_downtime_s,
              check::oracle_names().size());

  std::printf("\nper-second rendered FPS through the storm:\n");
  const auto& series = storm.metrics.presented_per_second;
  for (std::size_t second = 0; second < series.size(); second += 2) {
    const char* marker = "";
    if (second >= 8 && second < 13) marker = "  <- outage";
    else if (second >= 18 && second < 26) marker = "  <- thermal throttle";
    else if (second >= 30 && second < 36) marker = "  <- kill/relaunch window";
    std::printf("  t=%3zus  %3d fps%s\n", second, series[second], marker);
  }
  return total == asset_frames ? 0 : 1;
}
