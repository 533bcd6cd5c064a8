#include "campaign/checkpoint.hpp"

#include <exception>
#include <stdexcept>

namespace mvqoe::campaign {

const char* to_string(ShardStatus status) noexcept {
  switch (status) {
    case ShardStatus::Completed: return "completed";
    case ShardStatus::Failed: return "failed";
  }
  return "unknown";
}

snapshot::Snapshot save_checkpoint(const CheckpointState& state) {
  snapshot::ByteWriter w;
  w.u32(1);  // section version
  w.u64(state.fingerprint);
  w.str(state.config);
  w.u64(state.total_units);
  w.u64(state.units.size());
  for (const auto& [index, payload] : state.units) {
    w.u64(index);
    w.str(payload);
  }
  w.u32(static_cast<std::uint32_t>(state.shards.size()));
  for (const ShardOutcome& shard : state.shards) {
    w.u64(shard.first_unit);
    w.u64(shard.unit_count);
    w.i32(shard.attempts);
    w.u8(static_cast<std::uint8_t>(shard.status));
    w.str(shard.error);
  }
  snapshot::Snapshot snap;
  snap.put(kCampaignTag, std::move(w));
  return snap;
}

CheckpointState load_checkpoint(const snapshot::Snapshot& blob) {
  snapshot::ByteReader r(blob.require(kCampaignTag));
  const std::uint32_t version = r.u32();
  if (version != 1) {
    throw std::runtime_error("campaign: unsupported CAMP section version " +
                             std::to_string(version));
  }
  CheckpointState state;
  state.fingerprint = r.u64();
  state.config = r.str();
  state.total_units = r.u64();
  const std::uint64_t unit_count = r.u64();
  if (unit_count > state.total_units) {
    throw std::runtime_error("campaign: checkpoint records " + std::to_string(unit_count) +
                             " completed units of only " + std::to_string(state.total_units));
  }
  state.units.reserve(static_cast<std::size_t>(unit_count));
  std::uint64_t previous = 0;
  for (std::uint64_t i = 0; i < unit_count; ++i) {
    const std::uint64_t index = r.u64();
    if (index >= state.total_units || (i > 0 && index <= previous)) {
      throw std::runtime_error("campaign: checkpoint unit index " + std::to_string(index) +
                               " out of order or out of range");
    }
    previous = index;
    state.units.emplace_back(index, r.str());
  }
  const std::uint32_t shard_count = r.u32();
  state.shards.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    ShardOutcome shard;
    shard.first_unit = r.u64();
    shard.unit_count = r.u64();
    shard.attempts = r.i32();
    shard.status = r.enum8("campaign: checkpoint shard status", ShardStatus::Failed);
    shard.error = r.str();
    state.shards.push_back(std::move(shard));
  }
  if (!r.done()) {
    throw std::runtime_error("campaign: trailing bytes after the CAMP section payload");
  }
  return state;
}

bool write_checkpoint_file(const std::string& path, const CheckpointState& state) {
  return snapshot::Snapshot::write_file(path, save_checkpoint(state));
}

CheckpointState read_checkpoint_file(const std::string& path) {
  const snapshot::Snapshot blob = snapshot::Snapshot::read_file(path);
  try {
    return load_checkpoint(blob);
  } catch (const std::exception& e) {
    throw std::runtime_error("campaign: " + path + ": " + e.what());
  }
}

}  // namespace mvqoe::campaign
