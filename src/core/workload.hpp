// Workload component interface (DESIGN.md §11).
//
// A Workload is one independently-specified actor on the simulated
// device: a video session, a cohort of background apps, a synthetic
// pressure inducer. The Testbed hosts an ordered vector of them and the
// ScenarioDriver advances them all through the same phase sequence the
// legacy single-video experiment used:
//
//   attach()        world phase, after boot. Pressure workloads block
//                   here until their regime is established (the §4.1
//                   "start the video after the pressure signal" rule).
//                   Between it and start(), ScenarioDriver::set_cell may
//                   retarget the video cell.
//   start()         arm faults, build sessions, begin playback. Must not
//                   advance the engine (all workloads start at one
//                   instant, and byte-identity with the legacy path
//                   depends on it).
//   advance_slice() optional per-slice hook between the driver's
//                   1-second run_until slices. Must not advance the
//                   engine either.
//   done()          true when the workload has nothing left to do.
//                   Blocking workloads (video sessions) gate the run;
//                   ambient ones (background duty) report true always.
//   finalize()      disarm faults, settle accounting. No engine time.
//   register_components()  add save()/digest() hooks to the registry —
//                   the only way workload state enters snapshots.
#pragma once

#include <string>

#include "core/registry.hpp"
#include "mem/types.hpp"

namespace mvqoe::core {

class Testbed;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string label() const = 0;

  /// World phase (may consume simulated time; runs once, in spec order).
  virtual void attach(Testbed& testbed) = 0;
  /// Start phase (must not advance the engine).
  virtual void start(Testbed& testbed) = 0;
  /// Per-slice hook (must not advance the engine).
  virtual void advance_slice(Testbed& testbed) { (void)testbed; }
  /// True when finished; ambient workloads return true so they never
  /// gate the run.
  virtual bool done() const = 0;
  /// Tear-down accounting (must not advance the engine).
  virtual void finalize(Testbed& testbed) { (void)testbed; }

  /// Register snapshot hooks for whatever state this workload owns.
  virtual void register_components(ComponentRegistry& registry) { (void)registry; }

  /// Worst pressure level this workload observed while establishing its
  /// regime during attach() — the scenario's start_level is the max over
  /// workloads (mirrors the legacy prepare() bookkeeping).
  virtual mem::PressureLevel observed_level() const { return mem::PressureLevel::Normal; }
};

}  // namespace mvqoe::core
