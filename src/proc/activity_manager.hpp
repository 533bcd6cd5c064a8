// Activity lifecycle on top of the memory manager: launching apps,
// foreground/background transitions, oom_adj assignment, and the cached
// process LRU whose length drives the trim-signal thresholds (paper §2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <memory>

#include "mem/memory_manager.hpp"
#include "proc/app_catalog.hpp"
#include "sim/engine.hpp"

namespace mvqoe::proc {

using ProcessId = mem::ProcessId;

class ActivityManager {
 public:
  explicit ActivityManager(mem::MemoryManager& memory);

  /// Register the always-on system processes and a baseline population of
  /// cached processes (the LRU that Android "tries to aggressively cache
  /// at all times"). `system_scale` stretches system footprints,
  /// `cached_count` sets the initial cached-LRU length.
  void boot(double system_scale, int cached_count);

  /// Launch an app: registers the process, allocates its heap, maps its
  /// code pages and puts it in the foreground. Allocation proceeds
  /// asynchronously through the memory manager.
  ProcessId launch(const AppSpec& app, std::function<void()> on_kill = nullptr);

  /// Append one trimmed process to the cached LRU without a foreground
  /// launch: the footprint boot() gives its baseline population, scaled
  /// to the system image. This is how organic background state (e.g. a
  /// fleet cohort's preloaded apps) enters a world — backgrounded apps
  /// accumulated over days, not six synchronous foreground launches.
  ProcessId add_cached(const AppSpec& app);

  /// Foreground/background transitions adjust oom_adj and LRU warmth.
  void move_to_background(ProcessId pid);
  void bring_to_foreground(ProcessId pid);
  /// User closes the app (voluntary exit, frees memory, no kill callback).
  void close(ProcessId pid);

  /// Android aggressively re-caches processes: after lmkd kills shrink
  /// the cached LRU, services and recently-used apps restart and re-enter
  /// it. Every `period`, if the cached count is below `target`, one
  /// trimmed process is respawned. This is what makes Moderate pressure a
  /// sustainable oscillating state (paper Fig 6) and produces the
  /// repeated kills of Fig 15 rather than a one-shot massacre.
  void enable_respawn(sim::Engine& engine, int target, sim::Time period = sim::sec(8));
  std::uint64_t respawn_count() const noexcept { return respawns_; }

  ProcessId foreground() const noexcept { return foreground_; }
  int cached_count() const noexcept { return memory_.registry().cached_count(); }
  const std::vector<ProcessId>& launched() const noexcept { return launched_; }
  /// System processes registered by boot(), in catalog order.
  const std::vector<ProcessId>& system_pids() const noexcept { return system_pids_; }

  /// Allocate a fresh pid (monotonic; survives kill/relaunch cycles).
  ProcessId next_pid() noexcept { return next_pid_++; }

  mem::MemoryManager& memory() noexcept { return memory_; }

  /// Serialize lifecycle state: pid counter, foreground, launched/system
  /// pid lists and respawn bookkeeping.
  void save(snapshot::ByteWriter& w) const;
  std::uint64_t digest() const;

 private:
  void respawn_one();

  mem::MemoryManager& memory_;
  ProcessId next_pid_ = 1000;
  ProcessId foreground_ = 0;
  std::vector<ProcessId> launched_;
  std::vector<ProcessId> system_pids_;
  std::unique_ptr<sim::PeriodicTask> respawner_;
  double system_scale_ = 1.0;
  int respawn_target_ = 0;
  std::uint64_t respawns_ = 0;
  std::size_t respawn_cursor_ = 0;
};

}  // namespace mvqoe::proc
