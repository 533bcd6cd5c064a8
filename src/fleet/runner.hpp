// Fleet execution front-end (DESIGN.md §15).
//
// One fleet unit = one shard of devices; its payload is the shard's
// encoded FleetAggregate — a pure function of (spec, unit), exactly the
// contract the campaign coordinator and the thread-pool batch runner
// already guarantee for their payloads. run_fleet picks the execution
// lane (serial / --jobs threads / --procs supervised processes /
// resume) and then reduces the payloads identically in every lane:
// decode and merge in ascending unit order. Byte-identical digests
// across lanes are therefore a construction property, not a test hope —
// but tests/fleet_test.cpp asserts them anyway.
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "campaign/coordinator.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/spec.hpp"

namespace mvqoe::fleet {

struct FleetRunOptions {
  /// Worker threads for the in-process lane. 1 = serial reference.
  int jobs = 1;
  /// Polled between shards of the in-process lane.
  const volatile std::sig_atomic_t* interrupt = nullptr;
  /// (devices_done, devices_total), called as shard payloads land, in
  /// either lane (it replaces campaign->progress, which counts units).
  std::function<void(std::uint64_t, std::uint64_t)> progress;
  /// Set: the campaign coordinator runs the shards (worker processes,
  /// checkpoint, resume) and `jobs` is unused; config is filled in
  /// from the spec.
  std::optional<campaign::CampaignOptions> campaign;
};

struct FleetRunResult {
  FleetAggregate aggregate;
  /// Order-sensitive digest over (unit, payload) — the campaign digest.
  /// 0 unless complete.
  std::uint64_t digest = 0;
  bool complete = false;
  bool interrupted = false;
  std::uint64_t devices_done = 0;
  /// Throughput bookkeeping for BENCH_fleet.json.
  double wall_s = 0.0;
  double devices_per_sec = 0.0;
  /// Peak RSS (MB) of this process and, in the procs lane, the largest
  /// worker — the O(shard) bound the fleet design promises.
  double peak_rss_mb = 0.0;
  /// Filled in the coordinator lane; empty shards vector otherwise.
  campaign::CampaignResult campaign;
};

/// One shard's payload: observations for every device of `unit`, folded
/// in ascending device order into a fresh aggregate, encoded.
std::string run_fleet_unit(const FleetSpec& spec, std::uint64_t unit);

/// Run (or resume) the fleet and reduce to a single aggregate.
FleetRunResult run_fleet(const FleetSpec& spec, const FleetRunOptions& opts);

}  // namespace mvqoe::fleet
