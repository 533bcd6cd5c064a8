// Fleet execution front-end (DESIGN.md §15).
//
// One fleet unit = one shard of devices; its payload is the shard's
// encoded FleetAggregate — a pure function of (spec, unit), exactly the
// contract the campaign coordinator guarantees for its payloads. run_fleet
// runs the units through campaign::run_campaign, in either of its lanes
// (serial or --jobs threads in process, --procs supervised processes,
// resume), and then reduces the payloads identically in every lane:
// decode and merge in ascending unit order. Byte-identical digests
// across lanes are therefore a construction property, not a test hope —
// but tests/fleet_test.cpp asserts them anyway.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "campaign/coordinator.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/spec.hpp"

namespace mvqoe::fleet {

struct FleetRunOptions {
  /// Threads of the in-process lane when `campaign` is unset. 1 = serial
  /// reference.
  int jobs = 1;
  /// Set: run_campaign runs the shards under these options (procs 0 in
  /// process on campaign->jobs threads, else worker processes; interrupt,
  /// checkpoint, resume) and `jobs` is unused. config is filled in from
  /// the spec, and progress is called with (devices_done, devices_total)
  /// instead of units.
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
  /// The campaign's bookkeeping; its payloads are consumed by the
  /// reduction.
  campaign::CampaignResult campaign;
};

/// One shard's payload: observations for every device of `unit`, folded
/// in ascending device order into a fresh aggregate, encoded.
std::string run_fleet_unit(const FleetSpec& spec, std::uint64_t unit);

/// Run (or resume) the fleet and reduce to a single aggregate.
FleetRunResult run_fleet(const FleetSpec& spec, const FleetRunOptions& opts);

}  // namespace mvqoe::fleet
