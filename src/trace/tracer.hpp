// In-simulator trace recorder — the stand-in for Perfetto in the paper's
// §5 analysis. The scheduler, memory manager, storage stack, and video
// client all emit events here; the analyzers in trace/analysis.hpp then
// answer the same queries the paper ran over its Perfetto traces:
// per-thread state dwell times (Table 4), top running threads, preemption
// statistics (Table 5), kswapd state breakdown (Fig 13), kill/crash
// timelines (Figs 14/15).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace mvqoe::trace {

using ThreadId = std::uint32_t;
using ProcessId = std::uint32_t;
constexpr ThreadId kNoThread = 0;

/// Scheduler thread states, matching the taxonomy the paper reports.
/// `RunnablePreempted` is Runnable entered *because* the kernel preempted
/// the thread in favor of a higher-priority one (paper Table 4).
enum class ThreadState : std::uint8_t {
  Created,
  Running,
  Runnable,
  RunnablePreempted,
  Sleeping,
  BlockedIo,
  Terminated,
};

const char* to_string(ThreadState s) noexcept;

struct ThreadMeta {
  ThreadId tid = kNoThread;
  ProcessId pid = 0;
  std::string name;
  std::string process_name;
};

/// A closed [begin, end) interval a thread spent in one state.
struct StateInterval {
  ThreadId tid = kNoThread;
  sim::Time begin = 0;
  sim::Time end = 0;
  ThreadState state = ThreadState::Created;
  /// For RunnablePreempted: who preempted us. kNoThread otherwise.
  ThreadId preemptor = kNoThread;
};

/// One completed preemption episode: `preemptor` took the CPU from
/// `victim` at `at`; the preemptor then ran continuously for
/// `preemptor_run`; the victim waited `victim_wait` to run again.
struct PreemptionRecord {
  ThreadId victim = kNoThread;
  ThreadId preemptor = kNoThread;
  sim::Time at = 0;
  sim::Time preemptor_run = 0;
  sim::Time victim_wait = 0;
};

/// Point events (process kills, crashes, pressure-state changes, frame
/// presentation/drop). Kept as a small closed enum so analyzers can
/// filter without string comparisons.
enum class InstantKind : std::uint8_t {
  ProcessKilled,     // value = oom_adj of the victim; tid = victim main thread
  ClientCrashed,     // video client process was killed
  PressureState,     // value = static_cast<int>(mem::PressureLevel)
  TrimSignal,        // value = trim level delivered to apps
  FramePresented,    // value = frame index
  FrameDropped,      // value = frame index
  DirectReclaim,     // tid = thread that entered direct reclaim; value = µs stalled
  SegmentDownloaded, // value = segment index
  RungSwitch,        // value = new rung index (ABR decision)
  // Fault-injection and recovery events (src/fault/, video session
  // recovery): the substrate robustness scenarios assert against.
  LinkDown,          // value = scheduled outage duration in µs (0 = stochastic)
  LinkUp,            // link restored
  LinkRateChange,    // value = new rate in kbps
  StorageDegraded,   // value = latency multiplier x1000
  StorageRestored,   // storage back to nominal
  ThermalThrottle,   // value = speed scale x1000
  ThermalRestored,   // SoC back to full speed
  FaultKill,         // value = pid the injector killed
  SegmentRetry,      // value = segment index being retried
  DownloadTimeout,   // value = segment index whose transfer timed out
  SessionRelaunch,   // value = relaunch ordinal (1 = first relaunch)
};

const char* to_string(InstantKind kind) noexcept;

struct InstantEvent {
  InstantKind kind{};
  sim::Time at = 0;
  ThreadId tid = kNoThread;
  std::int64_t value = 0;
};

/// Periodic numeric samples (e.g. lmkd CPU utilization per second for
/// Fig 14, rendered FPS per second for Figs 15-17).
struct CounterSample {
  std::string name;
  sim::Time at = 0;
  double value = 0.0;
};

class Tracer {
 public:
  void register_thread(const ThreadMeta& meta);
  const ThreadMeta* thread(ThreadId tid) const noexcept;

  /// Close the thread's current state interval at `at` and open a new one.
  /// `preemptor` is meaningful only for RunnablePreempted.
  void state_change(ThreadId tid, sim::Time at, ThreadState next,
                    ThreadId preemptor = kNoThread);

  void preemption(const PreemptionRecord& rec);
  void instant(InstantKind kind, sim::Time at, ThreadId tid = kNoThread,
               std::int64_t value = 0);
  void counter(const std::string& name, sim::Time at, double value);

  /// Close all open intervals at `at`, in ascending tid order (call once
  /// at end of run before analysis; idempotent for already-terminated
  /// threads).
  void finalize(sim::Time at);

  /// Closed intervals in the order they closed. A deque: appending never
  /// copies the intervals already recorded.
  const std::deque<StateInterval>& intervals() const noexcept { return intervals_; }
  const std::vector<PreemptionRecord>& preemptions() const noexcept { return preemptions_; }
  const std::vector<InstantEvent>& instants() const noexcept { return instants_; }
  const std::vector<CounterSample>& counters() const noexcept { return counters_; }

 private:
  struct OpenInterval {
    sim::Time begin = 0;
    ThreadState state = ThreadState::Created;
    ThreadId preemptor = kNoThread;
    bool open = false;
  };

  std::unordered_map<ThreadId, ThreadMeta> threads_;
  std::vector<OpenInterval> open_;  // index = tid (the scheduler's dense ids)
  std::deque<StateInterval> intervals_;
  std::vector<PreemptionRecord> preemptions_;
  std::vector<InstantEvent> instants_;
  std::vector<CounterSample> counters_;
};

}  // namespace mvqoe::trace
