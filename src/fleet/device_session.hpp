// One fleet device-session: world template preparation and the
// per-second usage loop (DESIGN.md §15). The same loop also runs the §3
// field study, one device at a time (simulate_study_device).
//
// The session splits into a *template* phase — boot the family's device, preload the cohort's
// organic apps, idle through warmup — that is identical for every
// device of a (family, cohort) pair, and a *session* phase driven by
// the device's own seed. Each device rebuilds its template in-process
// from the (family, cohort) world stream.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "fleet/population.hpp"
#include "fleet/spec.hpp"
#include "mem/memory_manager.hpp"
#include "proc/activity_manager.hpp"
#include "sim/engine.hpp"
#include "study/analysis.hpp"

namespace mvqoe::fleet {

using study::kLevels;

/// What one device-session observed — the SignalCapturer counterpart at
/// fleet scale. Sample vectors are in capture (time) order so folding
/// them preserves the aggregate's deterministic input sequence.
struct DeviceObservations {
  std::uint32_t family = 0;
  std::uint32_t cohort = 0;
  /// Trim signals delivered, by level.
  std::array<std::uint64_t, kLevels> signals{};
  /// Whole seconds spent with each level as the current state.
  std::array<std::uint32_t, kLevels> seconds_in_level{};
  std::array<std::array<std::uint32_t, kLevels>, kLevels> transitions{};
  /// (from-level, seconds) per completed dwell, in time order.
  std::vector<std::pair<std::uint8_t, double>> dwell;
  /// RAM utilization every sample_period_s, in time order.
  std::vector<double> util_samples;
  /// (level, available MB) every sample_period_s, in time order.
  std::vector<std::pair<std::uint8_t, double>> avail_samples;
};

/// A device world: engine + memory manager + activity manager, bound
/// together in construction order. Non-copyable (the memory manager
/// holds an engine reference).
class FleetWorld {
 public:
  explicit FleetWorld(const core::DeviceProfile& profile,
                      const mem::MemPolicySpec& mem_policy = {});
  FleetWorld(const FleetWorld&) = delete;
  FleetWorld& operator=(const FleetWorld&) = delete;

  sim::Engine engine;
  mem::MemoryManager memory;
  proc::ActivityManager am;
};

/// Boot + cohort preload + warmup idle. Pure in (family, cohort,
/// spec.seed, spec.warmup_s).
void prepare_world(FleetWorld& world, std::uint32_t family, std::uint32_t cohort,
                   const FleetSpec& spec);

/// Run one device's session_s seconds of usage on a prepared world.
/// Consumes the world (the session mutates it).
DeviceObservations drive_session(FleetWorld& world, const FleetDevice& device,
                                 const FleetSpec& spec);

/// One §3 study device: its interactive hours of usage on a world booted
/// from its own profile (no preload, no warmup), on the session stream
/// derive_seed(seed, index + 7777). Every second feeds a 7200-slot
/// utilization reservoir and a 2000-slot available-memory reservoir per
/// level. Deterministic per (device, seed).
study::DeviceStudyResult simulate_study_device(const study::StudyDevice& device,
                                               std::uint64_t seed);

/// simulate_study_device over `population` on `jobs` threads
/// (runner::resolve_jobs), in population order whatever the worker count.
/// Uncleaned: apply study::clean downstream, as the paper does. Throws if
/// any device fails.
std::vector<study::DeviceStudyResult> run_study(const std::vector<study::StudyDevice>& population,
                                                std::uint64_t seed, int jobs);

/// Observations for every device of shard `unit`, in ascending device
/// order, each on its own freshly prepared world.
std::vector<DeviceObservations> run_shard_observations(const FleetSpec& spec, std::uint64_t unit);

}  // namespace mvqoe::fleet
