// Campaign progress checkpoints (the CAMP section of an MVQS blob).
//
// A campaign is a set of independently executable units (fuzz runs,
// sweep groups) whose per-unit result payloads are pure functions of the
// unit index and the campaign configuration. The checkpoint stores the
// configuration (opaque bytes + their digest), every completed unit's
// payload, and the cumulative shard supervision history — everything a
// later process needs to resume exactly where a killed campaign stopped
// and still produce the same campaign digest as an uninterrupted run
// (DESIGN.md §13).
//
// Checkpoints are written via Snapshot::write_file, which is atomic
// (temp + rename), so a kill -9 mid-flush leaves the previous complete
// checkpoint on disk, never a truncated one.
#pragma once

#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mem/policy.hpp"
#include "net/cc.hpp"
#include "snapshot/blob.hpp"

namespace mvqoe::campaign {

inline constexpr std::uint32_t kCampaignTag = snapshot::tag("CAMP");

enum class ShardStatus : std::uint8_t {
  Completed = 0,
  /// The shard exhausted its retry budget; its units are missing from
  /// the campaign and `error` records the last attempt's failure.
  Failed = 1,
};

/// Structured outcome of one shard's supervision: how many attempts it
/// took, and whether the campaign got its units in the end. A Failed
/// shard degrades the campaign (exit code 3) instead of sinking it.
struct ShardOutcome {
  std::uint64_t first_unit = 0;
  std::uint64_t unit_count = 0;
  int attempts = 0;
  ShardStatus status = ShardStatus::Completed;
  std::string error;
};

const char* to_string(ShardStatus status) noexcept;

struct CheckpointState {
  /// Guards resume compatibility: the digest of the config bytes, so a
  /// checkpoint can never silently resume under different parameters.
  std::uint64_t fingerprint = 0;
  /// Opaque application configuration (e.g. the encoded FuzzOptions) —
  /// lets `--resume <state.mvqs>` reconstruct the campaign without
  /// repeating the original flags.
  std::string config;
  std::uint64_t total_units = 0;
  /// Completed unit payloads, in ascending unit order.
  std::vector<std::pair<std::uint64_t, std::string>> units;
  /// Cumulative shard history across every invocation of the campaign.
  std::vector<ShardOutcome> shards;
};

snapshot::Snapshot save_checkpoint(const CheckpointState& state);
CheckpointState load_checkpoint(const snapshot::Snapshot& blob);

/// Atomic write / diagnosed read of a checkpoint file. read throws with
/// the path and a parse-level reason on truncated or garbage input.
bool write_checkpoint_file(const std::string& path, const CheckpointState& state);
CheckpointState read_checkpoint_file(const std::string& path);

/// The config a checkpoint was recorded under, decoded by the tool's own
/// `decode` (--resume without repeating the original flags). Throws with
/// the path on a missing, corrupt or undecodable checkpoint.
template <class Config>
Config load_resume_config(const std::string& path, Config (*decode)(const std::string&)) {
  const CheckpointState state = read_checkpoint_file(path);
  try {
    return decode(state.config);
  } catch (const std::exception& e) {
    throw std::runtime_error("campaign: " + path + ": " + e.what());
  }
}

/// The optional world tail of the sweep and fleet configs: nothing at
/// baseline + fifo (so older checkpoints keep their bytes), else the
/// policy spec, then the link spec unless it is fifo. A non-fifo link
/// therefore forces the policy spec out even at baseline: the reader
/// takes them in order, each only while bytes remain.
void save_spec_tail(snapshot::ByteWriter& w, const mem::MemPolicySpec& policy,
                    const net::NetSpec& net);
void load_spec_tail(snapshot::ByteReader& r, mem::MemPolicySpec& policy, net::NetSpec& net);

}  // namespace mvqoe::campaign
