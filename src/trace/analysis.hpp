// Trace analyzers — the queries the paper ran over its Perfetto traces.
//
// The readers of state intervals and preemption records (state_times,
// top_running_threads, running_rank, preemption_stats, state_fractions,
// running_fraction_per_second) throw std::logic_error naming the level
// on a `Counters` trace; the instant and counter readers work at both.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "trace/tracer.hpp"

namespace mvqoe::trace {

/// Total time each state was occupied, summed over a set of threads —
/// the Table 4 query ("mean time spent by video client process threads in
/// different process states"). Times in simulated seconds.
struct StateTimeTable {
  double running = 0.0;
  double runnable = 0.0;            // Runnable excluding preempted
  double runnable_preempted = 0.0;  // Runnable entered via preemption
  double sleeping = 0.0;
  double blocked_io = 0.0;
};
StateTimeTable state_times(const Tracer& tracer, const std::vector<ThreadId>& tids,
                           sim::Time begin = 0, sim::Time end = sim::kNever);

/// All threads ordered by total Running time, descending — the "top
/// running threads" query in §5. `rank` is 1-based.
struct ThreadRunTime {
  ThreadId tid = kNoThread;
  std::string name;
  std::string process_name;
  double running_seconds = 0.0;
  std::size_t rank = 0;
};
std::vector<ThreadRunTime> top_running_threads(const Tracer& tracer, sim::Time begin = 0,
                                               sim::Time end = sim::kNever);

/// Rank (1-based) of the named thread in the top-running list; 0 when the
/// thread never ran in the window.
std::size_t running_rank(const Tracer& tracer, const std::string& thread_name,
                         sim::Time begin = 0, sim::Time end = sim::kNever);

/// Table 5 aggregation: for preemptions of any of `victims` by the thread
/// named `preemptor_name`, the count, total preemptor run-after-preempt
/// time and total victim wait time (the paper reports means across runs of
/// these totals).
struct PreemptionStats {
  std::size_t count = 0;
  double preemptor_run_seconds = 0.0;
  double victim_wait_seconds = 0.0;
};
PreemptionStats preemption_stats(const Tracer& tracer, const std::vector<ThreadId>& victims,
                                 const std::string& preemptor_name);

/// Fraction of wall time a thread spent in each state within a window —
/// the Fig 13 query (kswapd state percentages). Keys are state names.
std::map<std::string, double> state_fractions(const Tracer& tracer, ThreadId tid,
                                              sim::Time begin = 0, sim::Time end = sim::kNever);

/// Per-second time series of a counter, averaging samples within each
/// second (Figs 14-17 plot per-second series). Missing seconds are 0.
std::vector<double> per_second_series(const Tracer& tracer, const std::string& counter_name,
                                      double default_value = 0.0);

/// Count of instant events of `kind` per second of the trace (e.g.
/// FrameDropped for rendered-FPS plots, ProcessKilled for Fig 15).
std::vector<std::size_t> instants_per_second(const Tracer& tracer, InstantKind kind);

/// Cumulative count of instant events of `kind` at each second boundary.
std::vector<std::size_t> cumulative_instants(const Tracer& tracer, InstantKind kind);

/// Per-second fraction of wall time a thread spent Running — the Fig 14
/// query (lmkd CPU utilization sampled during playback).
std::vector<double> running_fraction_per_second(const Tracer& tracer, ThreadId tid);

}  // namespace mvqoe::trace
