// Ambient system activity: system_server handling binder traffic,
// systemui rendering the status bar, the launcher, GMS... Each system
// process gets a thread that periodically does a little CPU work and
// re-touches part of its working set.
//
// Under Normal memory this is background noise. Under pressure — when
// kswapd has compressed the system processes' cold pages into zRAM —
// every touch faults (decompression CPU, storage reads through mmcqd),
// turning the whole device into the contended, thrashing environment the
// paper's §5 traces show: kswapd near-permanently running, mmcqd
// preempting, and video threads waiting for CPU they used to get.
#pragma once

#include <vector>

#include "core/testbed.hpp"
#include "stats/rng.hpp"

namespace mvqoe::core {

struct SystemActivityConfig {
  sim::Time base_period = sim::msec(400);
  /// Fraction of heap / code working set touched per period.
  double heap_fraction = 0.30;
  double code_fraction = 0.30;
  /// CPU work per duty cycle, reference-µs. Binder traffic, status-bar
  /// redraws, sync adapters: chunky bursts that make little cores busy.
  double duty_cpu_refus = 8000.0;
};

class SystemActivity {
 public:
  SystemActivity(Testbed& testbed, SystemActivityConfig config = {});
  ~SystemActivity();

  /// Create one duty thread per system process and start their loops
  /// (periods are jittered so the daemons don't beat in lockstep).
  void start();
  void stop();

  /// Attach a duty loop to an arbitrary process — used for background
  /// apps that keep working after losing the foreground (music playback,
  /// sync, feed refresh). Callable after start().
  void add_process(mem::ProcessId pid, sim::Time period = sim::msec(500));

  /// The duty-jitter RNG stream. Exposed for checkpointing and for the
  /// replay tool's bisection self-test, which flips one bit of this
  /// stream to create a minimal controlled divergence.
  stats::Rng& rng() noexcept { return rng_; }

  /// Serialize duty-loop composition and the jitter RNG stream.
  void save(snapshot::ByteWriter& w) const;
  std::uint64_t digest() const;

 private:
  struct Duty {
    mem::ProcessId pid = 0;
    sched::ThreadId tid = 0;
    sim::Time period = 0;
  };
  void loop(std::size_t index);
  // Flat continuations of duty `index`'s burst and sleep. The destructor
  // drops the pending ones, so neither runs against a destroyed driver.
  void duty_done(std::uint64_t index);
  void duty_woke(std::uint64_t index);

  Testbed& testbed_;
  SystemActivityConfig config_;
  stats::Rng rng_;
  std::vector<Duty> duties_;
  bool running_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace mvqoe::core
