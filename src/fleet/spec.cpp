#include "fleet/spec.hpp"

#include <stdexcept>
#include <utility>

#include "campaign/checkpoint.hpp"
#include "snapshot/bytes.hpp"

namespace mvqoe::fleet {

namespace {

void validate(const FleetSpec& spec) {
  if (spec.devices == 0) throw std::invalid_argument("fleet: devices must be >= 1");
  if (spec.session_s <= 0) throw std::invalid_argument("fleet: session seconds must be >= 1");
  if (spec.sample_period_s <= 0) {
    throw std::invalid_argument("fleet: sample period must be >= 1s");
  }
  if (spec.warmup_s < 0) throw std::invalid_argument("fleet: warmup must be >= 0s");
  if (spec.shard_size == 0) throw std::invalid_argument("fleet: shard size must be >= 1");
  mem::validate_policy_spec(spec.mem_policy);
  net::validate_net_spec(spec.net);
}

}  // namespace

std::uint64_t fleet_total_units(const FleetSpec& spec) {
  return (spec.devices + spec.shard_size - 1) / spec.shard_size;
}

std::string encode_fleet_config(const FleetSpec& spec) {
  snapshot::ByteWriter w;
  w.u32(1);  // config version
  w.u64(spec.devices);
  w.u64(spec.seed);
  w.i32(spec.session_s);
  w.i32(spec.sample_period_s);
  w.i32(spec.warmup_s);
  w.u64(spec.shard_size);
  campaign::save_spec_tail(w, spec.mem_policy, spec.net);  // still config version 1
  return std::move(w).take();
}

FleetSpec decode_fleet_config(const std::string& bytes) {
  snapshot::ByteReader r(bytes);
  const std::uint32_t version = r.u32();
  if (version != 1) {
    throw std::runtime_error("fleet: unsupported config version " + std::to_string(version));
  }
  FleetSpec spec;
  spec.devices = r.u64();
  spec.seed = r.u64();
  spec.session_s = r.i32();
  spec.sample_period_s = r.i32();
  spec.warmup_s = r.i32();
  spec.shard_size = r.u64();
  campaign::load_spec_tail(r, spec.mem_policy, spec.net);
  if (!r.done()) throw std::runtime_error("fleet: trailing bytes after the fleet config");
  validate(spec);
  return spec;
}

}  // namespace mvqoe::fleet
