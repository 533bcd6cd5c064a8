// Kernel-interference drill-down (the paper's §5 analysis as an
// example): run one pressured video session with tracing and print the
// Perfetto-style breakdown — top running threads, video-thread state
// dwell times, mmcqd preemption statistics, and kswapd's state shares.
//
//   $ ./examples/kernel_trace [pressure: 0..3]
#include <cstdio>

#include "runner/batch.hpp"
#include "scenario/driver.hpp"
#include "trace/analysis.hpp"

int main(int argc, char** argv) {
  using namespace mvqoe;
  const auto pressure =
      static_cast<mem::PressureLevel>(runner::parse_arg(argc, argv, 1, "pressure", 1, 0, 3));

  scenario::ScenarioDriver driver(scenario::single_video("fig09", 480, 60, 60, pressure, 3),
                                  trace::TraceLevel::Full);
  const auto result = driver.run().sessions.at(0).result;
  const auto& tracer = driver.testbed().tracer;
  const sim::Time begin = driver.playback_start();

  std::printf("session: Nokia 1, 480p60, %s -> drops %.1f%%, crashed=%s\n\n",
              mem::to_string(pressure), 100.0 * result.outcome.drop_rate,
              result.outcome.crashed ? "yes" : "no");

  std::printf("top running threads during playback:\n");
  const auto top = trace::top_running_threads(tracer, begin);
  for (std::size_t i = 0; i < std::min<std::size_t>(10, top.size()); ++i) {
    std::printf("  #%-2zu %-30s %7.2fs (%s)\n", top[i].rank, top[i].name.c_str(),
                top[i].running_seconds, top[i].process_name.c_str());
  }

  const video::VideoSession& session = *driver.video().session();
  std::vector<trace::ThreadId> video_threads = session.client_thread_ids();
  video_threads.push_back(session.surfaceflinger_tid());
  const auto states = trace::state_times(tracer, video_threads, begin);
  std::printf("\nvideo client thread states (summed over player, MediaCodec, SurfaceFlinger):\n");
  std::printf("  Running              %7.2fs\n", states.running);
  std::printf("  Runnable             %7.2fs\n", states.runnable);
  std::printf("  Runnable (Preempted) %7.2fs\n", states.runnable_preempted);
  std::printf("  Blocked on I/O       %7.2fs\n", states.blocked_io);

  const auto preemptions = trace::preemption_stats(tracer, video_threads, "mmcqd");
  std::printf("\nmmcqd preemptions of video threads: %zu (victim waited %.3fs total)\n",
              preemptions.count, preemptions.victim_wait_seconds);

  const auto kswapd = trace::state_fractions(
      tracer, driver.testbed().memory.kswapd_tid(), begin);
  std::printf("\nkswapd state shares:\n");
  for (const auto& [name, fraction] : kswapd) {
    std::printf("  %-22s %5.1f%%\n", name.c_str(), 100.0 * fraction);
  }

  const auto& vm = driver.testbed().memory.vmstat();
  std::printf("\nvmstat: pswpin=%llu pswpout=%llu pgpgin=%llu kills=%llu direct_reclaims=%llu\n",
              static_cast<unsigned long long>(vm.pswpin),
              static_cast<unsigned long long>(vm.pswpout),
              static_cast<unsigned long long>(vm.pgpgin),
              static_cast<unsigned long long>(vm.kills_lmkd),
              static_cast<unsigned long long>(vm.direct_reclaim_entries));
  return 0;
}
