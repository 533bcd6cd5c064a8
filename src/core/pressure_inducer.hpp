// Synthetic memory-pressure application — the simulation counterpart of
// the "MP Simulator" app from Qazi et al. [34] that the paper uses to
// emulate pressure regimes (§4.1): "it continues to allocate memory
// until it starts receiving <target> memory pressure signals from the
// kernel". The process is unkillable (the real app pins native memory),
// so victims die around it while pressure stays applied; it also keeps
// topping up if kills bring the level back down (maintain mode).
#pragma once

#include <functional>
#include <memory>

#include "core/testbed.hpp"

namespace mvqoe::core {

class PressureInducer {
 public:
  PressureInducer(Testbed& testbed, mem::PressureLevel target);

  PressureInducer(const PressureInducer&) = delete;
  PressureInducer& operator=(const PressureInducer&) = delete;

  ~PressureInducer();

  /// Begin allocating; `on_reached` fires once when the target level is
  /// first *signalled* (the MP Simulator stops at the first onTrimMemory
  /// delivery of the target level). For a Normal target it fires
  /// immediately.
  void start(std::function<void()> on_reached);
  /// Stop allocating and release everything.
  void stop();

  bool reached() const noexcept { return reached_; }
  mem::Pages held_pages() const noexcept { return held_; }

  /// Serialize allocation progress (held pages, reached flag, cap).
  void save(snapshot::ByteWriter& w) const;
  std::uint64_t digest() const;

 private:
  void step();
  /// The touch burst of a step ended: allocate its pages.
  void touched();
  mem::Pages target_available() const;

  std::shared_ptr<bool> keepalive_ = std::make_shared<bool>(true);
  Testbed& testbed_;
  mem::PressureLevel target_;
  mem::ProcessId pid_ = 0;
  sched::ThreadId tid_ = 0;
  bool running_ = false;
  bool reached_ = false;
  mem::Pages held_ = 0;
  mem::Pages held_at_reached_ = 0;
  mem::Pages cap_;
  // The step in flight: its pages and the pause after it.
  mem::Pages step_pages_ = 0;
  sim::Time step_wait_ = 0;
  std::function<void()> on_reached_;
};

}  // namespace mvqoe::core
