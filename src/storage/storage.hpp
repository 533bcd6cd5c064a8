// eMMC storage model with its queued-I/O kernel daemon, `mmcqd`.
//
// The paper's §5 finding is that under memory pressure, reclaim-driven
// disk I/O (dirty-page writeback, thrashing page-ins) makes mmcqd one of
// the busiest threads on the device, and because mmcqd is scheduled at
// realtime priority it *preempts* foreground video threads on every
// request (Table 5: 26.6x more preemptions, 27.5x longer victim waits
// under Moderate pressure).
//
// The model: requests queue at the device; the mmcqd thread (an RT thread
// on the simulated CPU) wakes per request, spends CPU dispatching it,
// blocks for the device transfer, then spends CPU completing it. Every
// one of those wakeups preempts whatever fair-class thread occupies the
// chosen core — exactly the interference mechanism the paper measured.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "stats/rng.hpp"

namespace mvqoe::storage {

struct StorageConfig {
  double read_bandwidth_mbps = 140.0;   // sequential read, MB/s
  double write_bandwidth_mbps = 45.0;   // sequential write, MB/s
  sim::Time request_latency = sim::usec(250);  // fixed per-request device time
  /// CPU work (reference-µs) mmcqd spends dispatching a request and
  /// processing its completion. Small per-request costs add up to seconds
  /// of stolen CPU at thrashing-era request rates.
  double dispatch_cpu_refus = 60.0;
  double completion_cpu_refus = 40.0;
  int rt_priority = 50;  // mmcqd's realtime priority
  /// Device-side back-off before retrying a transiently-failed request.
  sim::Time error_retry_delay = sim::msec(5);
  /// Attempts per request while transient errors are injected; the final
  /// attempt always succeeds so a fault window degrades throughput and
  /// latency without wedging writeback or refault paths.
  int max_error_retries = 4;
};

struct IoRequest {
  bool write = false;
  std::uint64_t bytes = 4096;
  /// Invoked when the request fully completes (after mmcqd's completion
  /// processing). May be empty for fire-and-forget writeback.
  std::function<void()> on_complete;
};

struct StorageCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t written_bytes = 0;
  std::uint64_t io_errors = 0;   // injected transient failures
  std::uint64_t io_retries = 0;  // device-side retries they caused
};

class StorageDevice {
 public:
  StorageDevice(sim::Engine& engine, sched::Scheduler& scheduler, StorageConfig config);

  StorageDevice(const StorageDevice&) = delete;
  StorageDevice& operator=(const StorageDevice&) = delete;

  /// Enqueue a request; wakes mmcqd if it is idle.
  void submit(IoRequest request);

  std::size_t queue_depth() const noexcept { return queue_.size() - queue_head_; }
  bool busy() const noexcept { return active_; }
  sched::ThreadId mmcqd_tid() const noexcept { return mmcqd_; }
  const StorageCounters& counters() const noexcept { return counters_; }

  /// Wall time the device itself (not mmcqd's CPU work) needs for a
  /// request of `bytes`, including any injected latency degradation.
  sim::Time transfer_time(bool write, std::uint64_t bytes) const noexcept;

  // --- Fault injection (FaultInjector hooks) -----------------------------
  /// Stretch every device transfer by `multiplier` (>= 1.0 is a latency
  /// spike window; 1.0 restores nominal speed).
  void set_latency_multiplier(double multiplier) noexcept;
  double latency_multiplier() const noexcept { return latency_multiplier_; }
  /// Inject transient request failures with probability `rate` per
  /// attempt, drawn from a deterministic seeded stream. A failed attempt
  /// costs error_retry_delay and is retried (see max_error_retries).
  void set_error_rate(double rate, std::uint64_t seed) noexcept;
  double error_rate() const noexcept { return error_rate_; }

  /// Serialize queue depth/shape, counters, fault knobs and the fault
  /// RNG stream (request completion callbacks and the in-flight request
  /// excluded — closures, replay-reconstructed per DESIGN.md §10).
  void save(snapshot::ByteWriter& w) const;
  std::uint64_t digest() const;

 private:
  void pump();
  // The stages of the request in flight, each a flat continuation: the
  // dispatch burst ends, the device transfer (attempt = 1, 2, ...) starts
  // and ends, the completion burst ends.
  void dispatched();
  void device_transfer(std::uint64_t attempt);
  void transfer_done(std::uint64_t attempt);
  void completed();

  sim::Engine& engine_;
  sched::Scheduler& scheduler_;
  StorageConfig config_;
  sched::ThreadId mmcqd_;
  // Waiting requests are queue_[queue_head_, size()). Popping advances the
  // head, and the consumed prefix is erased once it is half the vector,
  // so a steady stream of requests reuses one buffer.
  std::vector<IoRequest> queue_;
  std::size_t queue_head_ = 0;
  // The request mmcqd is serving; the device serves one at a time.
  IoRequest in_flight_;
  bool active_ = false;  // mmcqd currently working a request
  StorageCounters counters_;
  double latency_multiplier_ = 1.0;
  double error_rate_ = 0.0;
  stats::Rng fault_rng_{0x570Fu};
};

}  // namespace mvqoe::storage
