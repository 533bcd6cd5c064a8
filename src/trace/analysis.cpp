#include "trace/analysis.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace mvqoe::trace {

namespace {

/// Overlap of [a0,a1) with [b0,b1) in seconds.
double overlap_seconds(sim::Time a0, sim::Time a1, sim::Time b0, sim::Time b1) noexcept {
  const sim::Time lo = std::max(a0, b0);
  const sim::Time hi = std::min(a1, b1);
  return hi > lo ? sim::to_seconds(hi - lo) : 0.0;
}

sim::Time trace_end(const Tracer& tracer) noexcept {
  sim::Time end = tracer.finalized_at();
  for (const auto& iv : tracer.intervals()) end = std::max(end, iv.end);
  for (const auto& ev : tracer.instants()) end = std::max(end, ev.at);
  for (const auto& cs : tracer.counters()) end = std::max(end, cs.at);
  return end;
}

}  // namespace

StateTimeTable state_times(const Tracer& tracer, const std::vector<ThreadId>& tids,
                           sim::Time begin, sim::Time end) {
  tracer.require_full("trace::state_times");
  const std::unordered_set<ThreadId> wanted(tids.begin(), tids.end());
  StateTimeTable table;
  for (const auto& iv : tracer.intervals()) {
    if (wanted.count(iv.tid) == 0) continue;
    const double secs = overlap_seconds(iv.begin, iv.end, begin, end);
    if (secs <= 0.0) continue;
    switch (iv.state) {
      case ThreadState::Running: table.running += secs; break;
      case ThreadState::Runnable: table.runnable += secs; break;
      case ThreadState::RunnablePreempted: table.runnable_preempted += secs; break;
      case ThreadState::Sleeping: table.sleeping += secs; break;
      case ThreadState::BlockedIo: table.blocked_io += secs; break;
      default: break;
    }
  }
  return table;
}

std::vector<ThreadRunTime> top_running_threads(const Tracer& tracer, sim::Time begin,
                                               sim::Time end) {
  tracer.require_full("trace::top_running_threads");
  std::unordered_map<ThreadId, double> running;
  for (const auto& iv : tracer.intervals()) {
    if (iv.state != ThreadState::Running) continue;
    const double secs = overlap_seconds(iv.begin, iv.end, begin, end);
    if (secs > 0.0) running[iv.tid] += secs;
  }
  std::vector<ThreadRunTime> out;
  out.reserve(running.size());
  for (const auto& [tid, secs] : running) {
    ThreadRunTime row;
    row.tid = tid;
    row.running_seconds = secs;
    if (const ThreadMeta* meta = tracer.thread(tid)) {
      row.name = meta->name;
      row.process_name = meta->process_name;
    }
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(), [](const ThreadRunTime& a, const ThreadRunTime& b) {
    return a.running_seconds != b.running_seconds ? a.running_seconds > b.running_seconds
                                                  : a.tid < b.tid;
  });
  for (std::size_t i = 0; i < out.size(); ++i) out[i].rank = i + 1;
  return out;
}

std::size_t running_rank(const Tracer& tracer, const std::string& thread_name, sim::Time begin,
                         sim::Time end) {
  for (const auto& row : top_running_threads(tracer, begin, end)) {
    if (row.name == thread_name) return row.rank;
  }
  return 0;
}

PreemptionStats preemption_stats(const Tracer& tracer, const std::vector<ThreadId>& victims,
                                 const std::string& preemptor_name) {
  tracer.require_full("trace::preemption_stats");
  const std::unordered_set<ThreadId> wanted(victims.begin(), victims.end());
  PreemptionStats stats;
  for (const auto& rec : tracer.preemptions()) {
    if (wanted.count(rec.victim) == 0) continue;
    const ThreadMeta* meta = tracer.thread(rec.preemptor);
    if (meta == nullptr || meta->name != preemptor_name) continue;
    ++stats.count;
    stats.preemptor_run_seconds += sim::to_seconds(rec.preemptor_run);
    stats.victim_wait_seconds += sim::to_seconds(rec.victim_wait);
  }
  return stats;
}

std::map<std::string, double> state_fractions(const Tracer& tracer, ThreadId tid, sim::Time begin,
                                              sim::Time end) {
  tracer.require_full("trace::state_fractions");
  std::map<std::string, double> seconds;
  double total = 0.0;
  for (const auto& iv : tracer.intervals()) {
    if (iv.tid != tid) continue;
    const double secs = overlap_seconds(iv.begin, iv.end, begin, end);
    if (secs <= 0.0) continue;
    seconds[to_string(iv.state)] += secs;
    total += secs;
  }
  if (total > 0.0) {
    for (auto& [name, secs] : seconds) secs /= total;
  }
  return seconds;
}

std::vector<double> per_second_series(const Tracer& tracer, const std::string& counter_name,
                                      double default_value) {
  const sim::Time end = trace_end(tracer);
  const std::size_t seconds = static_cast<std::size_t>(end / sim::sec(1)) + 1;
  std::vector<double> sums(seconds, 0.0);
  std::vector<std::size_t> counts(seconds, 0);
  for (const auto& cs : tracer.counters()) {
    if (cs.name != counter_name) continue;
    const std::size_t bucket = static_cast<std::size_t>(cs.at / sim::sec(1));
    sums[bucket] += cs.value;
    ++counts[bucket];
  }
  std::vector<double> out(seconds, default_value);
  for (std::size_t i = 0; i < seconds; ++i) {
    if (counts[i] > 0) out[i] = sums[i] / static_cast<double>(counts[i]);
  }
  return out;
}

std::vector<std::size_t> instants_per_second(const Tracer& tracer, InstantKind kind) {
  const sim::Time end = trace_end(tracer);
  std::vector<std::size_t> out(static_cast<std::size_t>(end / sim::sec(1)) + 1, 0);
  for (const auto& ev : tracer.instants()) {
    if (ev.kind != kind) continue;
    ++out[static_cast<std::size_t>(ev.at / sim::sec(1))];
  }
  return out;
}

std::vector<double> running_fraction_per_second(const Tracer& tracer, ThreadId tid) {
  tracer.require_full("trace::running_fraction_per_second");
  const sim::Time end = trace_end(tracer);
  std::vector<double> out(static_cast<std::size_t>(end / sim::sec(1)) + 1, 0.0);
  for (const auto& iv : tracer.intervals()) {
    if (iv.tid != tid || iv.state != ThreadState::Running) continue;
    for (sim::Time t = iv.begin - iv.begin % sim::sec(1); t < iv.end; t += sim::sec(1)) {
      const std::size_t bucket = static_cast<std::size_t>(t / sim::sec(1));
      if (bucket >= out.size()) break;
      out[bucket] += overlap_seconds(iv.begin, iv.end, t, t + sim::sec(1));
    }
  }
  return out;
}

std::vector<std::size_t> cumulative_instants(const Tracer& tracer, InstantKind kind) {
  std::vector<std::size_t> per_sec = instants_per_second(tracer, kind);
  std::size_t total = 0;
  for (std::size_t& n : per_sec) {
    total += n;
    n = total;
  }
  return per_sec;
}

}  // namespace mvqoe::trace
