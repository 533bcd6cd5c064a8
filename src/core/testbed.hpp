// One fully-wired simulated device: engine, tracer, CPU scheduler,
// storage (mmcqd), memory manager (kswapd/lmkd), WiFi link and activity
// manager. Each experiment run constructs a fresh Testbed — the
// simulation equivalent of rebooting the phone between runs. Its tracer
// records at `Counters` unless the caller dissects thread states and
// asks for `Full` (trace/tracer.hpp).
#pragma once

#include <cstdint>
#include <memory>

#include "core/device.hpp"
#include "core/registry.hpp"
#include "mem/memory_manager.hpp"
#include "net/link.hpp"
#include "proc/activity_manager.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "storage/storage.hpp"
#include "trace/tracer.hpp"

namespace mvqoe::core {

class SystemActivity;

class Testbed {
 public:
  explicit Testbed(DeviceProfile profile, std::uint64_t seed = 1,
                   mem::MemPolicySpec mem_policy = {}, net::NetSpec net = {},
                   trace::TraceLevel trace_level = trace::TraceLevel::Counters);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Register the system image + baseline cached processes and let the
  /// allocations settle (a couple of simulated seconds).
  void boot();

  const DeviceProfile& profile() const noexcept { return profile_; }
  std::uint64_t seed() const noexcept { return seed_; }

  /// Give a process an ambient duty loop (see SystemActivity). Only valid
  /// after boot().
  void add_background_duty(mem::ProcessId pid, sim::Time period = sim::msec(500));

  /// The ambient system-activity driver; null before boot(). Exposed for
  /// checkpointing (its RNG stream is part of simulation state).
  SystemActivity* system_activity() noexcept { return system_activity_.get(); }
  const SystemActivity* system_activity() const noexcept { return system_activity_.get(); }

  /// Snapshot component registry. The six wired subsystems register at
  /// construction, SystemActivity at boot(), a scenario's workloads as
  /// they attach or start — so save_state()/digest paths never depend on
  /// a hand-maintained list.
  ComponentRegistry& components() noexcept { return components_; }
  const ComponentRegistry& components() const noexcept { return components_; }

  sim::Engine engine;
  trace::Tracer tracer;
  sched::Scheduler scheduler;
  storage::StorageDevice storage;
  mem::MemoryManager memory;
  net::Link link;
  proc::ActivityManager am;

 private:
  DeviceProfile profile_;
  std::uint64_t seed_;
  std::unique_ptr<SystemActivity> system_activity_;
  ComponentRegistry components_;
};

}  // namespace mvqoe::core
