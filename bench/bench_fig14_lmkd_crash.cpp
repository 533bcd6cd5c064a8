// Figure 14: instantaneous frame rate and lmkd CPU utilization during a
// video session that crashed due to high memory pressure (Nokia 1).
// Paper: the video plays, then at the crash point there is a spike in
// lmkd's CPU utilization — lmkd waking up to kill the client.
//
// The session starts under light conditions and the MP-Simulator-style
// allocator ramps toward Critical *during* playback, so the crash lands
// mid-video as in the paper's example run.
#include "bench_util.hpp"
#include "core/pressure_inducer.hpp"
#include "trace/analysis.hpp"

int main() {
  using namespace mvqoe;
  bench::header("Figure 14 - rendered FPS and lmkd CPU during a crashing session (Nokia 1)",
                "Waheed et al., CoNEXT'22, Fig. 14");
  const int duration = bench::video_duration_s(90);

  core::Testbed testbed(core::nokia1(), 5, {}, {}, trace::TraceLevel::Full);
  testbed.boot();

  video::SessionConfig config;
  config.asset = video::dubai_flow_motion(duration);
  config.initial_rung = *config.ladder.find(480, 60);
  config.seed = 5;
  video::VideoSession session(testbed.engine, testbed.scheduler, testbed.memory, testbed.link,
                              testbed.tracer, config);
  bool finished = false;
  session.start(testbed.am.next_pid(), [&finished] { finished = true; });

  // Let playback settle, then ramp pressure mid-video.
  core::PressureInducer inducer(testbed, mem::PressureLevel::Critical);
  testbed.engine.schedule(sim::sec(20), [&inducer] { inducer.start(nullptr); });

  const sim::Time horizon = testbed.engine.now() + sim::sec(duration * 3);
  while (!finished && testbed.engine.now() < horizon) {
    testbed.engine.run_until(testbed.engine.now() + sim::sec(1));
  }
  testbed.tracer.finalize(testbed.engine.now());

  const auto& metrics = session.metrics();
  const auto lmkd_cpu =
      trace::running_fraction_per_second(testbed.tracer, testbed.memory.lmkd_tid());
  const auto start_second = static_cast<std::size_t>(
      std::max<sim::Time>(0, metrics.playback_start) / sim::sec(1));

  bench::section("timeline (media-second, rendered FPS, lmkd CPU%)");
  const std::size_t seconds = std::max(metrics.presented_per_second.size(),
                                       metrics.dropped_per_second.size());
  for (std::size_t second = 0; second < seconds; second += 2) {
    const std::size_t wall = start_second + second;
    const double lmkd = wall < lmkd_cpu.size() ? 100.0 * lmkd_cpu[wall] : 0.0;
    const int fps = second < metrics.presented_per_second.size()
                        ? metrics.presented_per_second[second]
                        : 0;
    std::printf("  t=%3zus  fps=%3d |%-20s  lmkd=%5.1f%% |%s\n", second, fps,
                stats::ascii_bar(fps / 60.0, 20).c_str(), lmkd,
                stats::ascii_bar(lmkd / 100.0, 12).c_str());
  }

  if (!metrics.crashed) {
    std::printf("\n(no crash this run — pressure ramp too slow for this seed)\n");
    return 0;
  }
  const auto crash_second = static_cast<std::size_t>(metrics.crash_time / sim::sec(1));
  std::printf("\ncrash at wall t=%.1fs (media-second ~%zu)\n",
              sim::to_seconds(metrics.crash_time),
              crash_second > start_second ? crash_second - start_second : 0);

  // Paper's qualitative claim: lmkd spikes at the crash vs a quiet
  // baseline during stable playback.
  double near_crash = 0.0;
  double baseline = 0.0;
  std::size_t baseline_n = 0;
  for (std::size_t second = start_second; second < lmkd_cpu.size(); ++second) {
    if (second + 4 >= crash_second && second <= crash_second + 1) {
      near_crash = std::max(near_crash, lmkd_cpu[second]);
    } else if (second < start_second + 15) {
      baseline += lmkd_cpu[second];
      ++baseline_n;
    }
  }
  bench::section("shape check");
  const double baseline_mean = baseline_n > 0 ? baseline / baseline_n : 0.0;
  std::printf("  lmkd CPU near crash: %.3f%%, early-playback baseline: %.3f%% -> spike %s\n",
              100.0 * near_crash, 100.0 * baseline_mean,
              near_crash > baseline_mean * 2.0 + 1e-6 ? "PRESENT" : "absent");
  return 0;
}
