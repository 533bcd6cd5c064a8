// Quickstart: stream one DASH video on a simulated Nexus 5 under
// Moderate memory pressure and print the QoE report.
//
//   $ ./examples/quickstart [height] [fps] [pressure: 0..3]
//
// This walks the whole public API surface once: pick a device preset,
// describe the run, execute it, read the metrics.
#include <cstdio>

#include "runner/batch.hpp"
#include "scenario/driver.hpp"

int main(int argc, char** argv) {
  using namespace mvqoe;

  const int height = runner::parse_arg(argc, argv, 1, "height", 1080, 1);
  const int fps = runner::parse_arg(argc, argv, 2, "fps", 60, 1);
  const auto pressure =
      static_cast<mem::PressureLevel>(runner::parse_arg(argc, argv, 3, "pressure", 1, 0, 3));
  // "fig11" is the paper's Nexus 5 + Firefox setup.
  const scenario::ScenarioSpec spec =
      scenario::single_video("fig11", height, fps, /*duration_s=*/60, pressure, /*seed=*/7);
  const core::DeviceProfile device = scenario::device_for(spec);

  std::printf("device   : %s (%lld MB RAM, %zu cores)\n", device.name.c_str(),
              static_cast<long long>(device.ram_mb), device.scheduler.cores.size());
  std::printf("video    : %s\n", video::dubai_flow_motion(60).title.c_str());
  std::printf("rung     : %dp @ %d FPS\n", height, fps);
  std::printf("pressure : %s (MP-Simulator style, applied before playback)\n\n",
              mem::to_string(pressure));

  const core::VideoRunResult result = scenario::run_scenario(spec).sessions.at(0).result;

  std::printf("pressure level at playback start : %s\n", mem::to_string(result.start_level));
  std::printf("startup delay                    : %.2f s\n", result.outcome.startup_delay_s);
  std::printf("frames presented / dropped       : %lld / %lld\n",
              static_cast<long long>(result.metrics.frames_presented),
              static_cast<long long>(result.metrics.frames_dropped));
  std::printf("frame drop rate                  : %.1f %%\n", 100.0 * result.outcome.drop_rate);
  std::printf("client crashed (lmkd kill)       : %s\n",
              result.outcome.crashed ? "yes" : "no");
  std::printf("client PSS (mean / peak)         : %.0f / %.0f MB\n",
              result.outcome.mean_pss_mb, result.outcome.peak_pss_mb);

  std::printf("\nper-second rendered FPS:\n");
  const auto& series = result.metrics.presented_per_second;
  for (std::size_t second = 0; second < series.size(); second += 4) {
    std::printf("  t=%3zus  %3d fps\n", second, series[second]);
  }
  return 0;
}
