// Fleet campaign specification (DESIGN.md §15).
//
// A fleet run drives `devices` independent device-sessions and reduces
// them into one streaming FleetAggregate. The spec holds only the
// result-defining parameters: everything here is covered by the config
// fingerprint, so a checkpoint can never silently resume under a
// different population. Execution knobs (--jobs/--procs)
// live in fleet::FleetRunOptions instead — like the sweep campaign's
// group_workers, they may change across resumes without changing a
// single output byte.
#pragma once

#include <cstdint>
#include <string>

#include "mem/policy.hpp"
#include "net/cc.hpp"

namespace mvqoe::fleet {

struct FleetSpec {
  /// Device-sessions to simulate.
  std::uint64_t devices = 1000;
  /// Root seed; device d's sampling/session streams are
  /// derive_seed(seed, 2d) / derive_seed(seed, 2d+1), world templates
  /// use derive_seed(seed, (1<<32) | family*16 + cohort).
  std::uint64_t seed = 7;
  /// Interactive seconds simulated per device-session.
  int session_s = 60;
  /// Heavyweight signal sampling (utilization, available MB) happens
  /// every this many sim-seconds; level dwell/transitions are still
  /// tracked every second.
  int sample_period_s = 5;
  /// Sim-seconds the prepared world template idles after boot +
  /// cohort preload, before any session starts.
  int warmup_s = 10;
  /// Devices per campaign unit — the granularity of parallelism,
  /// checkpointing and crash retry. Peak memory is O(shard), never
  /// O(fleet).
  std::uint64_t shard_size = 256;
  /// Memory reclaim/kill policy every device in the fleet runs.
  /// Baseline (the default) encodes to nothing, so historical
  /// checkpoint fingerprints are unchanged.
  mem::MemPolicySpec mem_policy;
  /// Link congestion controller every device-session runs. The fifo
  /// default likewise encodes to nothing (and skips the network phase
  /// entirely, keeping pre-cc fleets bit-identical).
  net::NetSpec net;
};

/// Campaign units: ceil(devices / shard_size). Unit u covers device
/// indices [u*shard_size, min((u+1)*shard_size, devices)).
std::uint64_t fleet_total_units(const FleetSpec& spec);

/// Canonical wire encoding (campaign checkpoint config; its digest is
/// the resume guard) and its inverse, which throws on malformed bytes.
/// `mvqoe_fleet resume` decodes it with campaign::load_resume_config.
std::string encode_fleet_config(const FleetSpec& spec);
FleetSpec decode_fleet_config(const std::string& bytes);

}  // namespace mvqoe::fleet
