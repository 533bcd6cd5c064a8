// Field-study example: run a small SignalCapturer-style population study
// (the paper's §3) and print each device's memory-pressure profile plus
// the aggregate summary.
//
//   $ ./examples/field_study [devices] [hours_scale] [--jobs N]
//
// Each device's observation window is an independent seeded simulation,
// so the population fans out across the batch runner; the report prints
// in population order whatever the worker count.
#include <cstdio>
#include <limits>
#include <string_view>
#include <vector>

#include "runner/batch.hpp"
#include "study/analysis.hpp"

int main(int argc, char** argv) {
  using namespace mvqoe;
  // The positional arguments around --jobs N / --jobs=N.
  std::vector<char*> args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--jobs") ++i;  // value consumed by jobs_from_args
    if (!arg.starts_with("--jobs")) args.push_back(argv[i]);
  }
  const int count = static_cast<int>(args.size());
  const int devices = runner::parse_arg(count, args.data(), 1, "devices", 12, 1);
  const double scale = runner::parse_arg(count, args.data(), 2, "hours_scale", 0.15,
                                         std::numeric_limits<double>::denorm_min());
  const int jobs = runner::jobs_from_args(argc, argv);

  auto population = study::generate_population(devices, 42);
  for (auto& device : population) device.interactive_hours *= scale;

  std::printf("simulating %d devices (interactive hours scaled by %.2f, %d worker%s)...\n\n",
              devices, scale, jobs, jobs == 1 ? "" : "s");
  const auto batch = runner::run_batch(population.size(), jobs, [&population](std::size_t i) {
    return study::simulate_device(population[i], 1);
  });
  std::vector<study::DeviceStudyResult> results;
  results.reserve(batch.runs.size());
  for (const auto& slot : batch.runs) {
    if (slot.ok) results.push_back(slot.value);
  }

  std::printf("%-4s %-10s %5s %7s %7s  %9s %9s %9s  %8s\n", "#", "vendor", "RAM", "hours",
              "util%", "mod/h", "low/h", "crit/h", "%pressed");
  for (const auto& result : results) {
    std::printf("%-4d %-10s %4lldM %6.1fh %6.1f%%  %9.2f %9.2f %9.2f  %7.2f%%\n",
                result.device.index, result.device.manufacturer.c_str(),
                static_cast<long long>(result.device.ram_mb), result.hours_logged,
                100.0 * result.median_utilization, result.signals_per_hour(1),
                result.signals_per_hour(2), result.signals_per_hour(3),
                100.0 * result.fraction_not_normal());
  }

  const auto summary = study::summarize(results);
  std::printf("\naggregate (uncleaned, %zu devices):\n", summary.devices);
  std::printf("  median utilization >= 60%%   : %.0f%% of devices\n",
              summary.percent_median_util_ge_60);
  std::printf("  >= 1 pressure signal/hour   : %.0f%% of devices\n",
              summary.percent_with_any_signal_per_hour);
  std::printf("  > 10 Critical signals/hour  : %.0f%% of devices\n",
              summary.percent_with_10_critical_per_hour);
  std::printf("  >= 2%% time in high pressure : %.0f%% of devices\n",
              summary.percent_time2_high_pressure);
  return 0;
}
