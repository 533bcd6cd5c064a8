#include "campaign/policy_campaign.hpp"

#include <stdexcept>
#include <utility>

#include "snapshot/bytes.hpp"

namespace mvqoe::campaign {

namespace {

/// Lane i of the compare: the base grid under policies[i]. Every lane
/// keeps the base grid's link and seeds, so lanes differ by policy only.
std::vector<SweepCampaignSpec> lane_specs(const PolicyCompareSpec& spec) {
  std::vector<SweepCampaignSpec> lanes(spec.policies.size(), spec.base);
  for (std::size_t i = 0; i < lanes.size(); ++i) lanes[i].mem_policy = spec.policies[i];
  return lanes;
}

void validate(const PolicyCompareSpec& spec) {
  if (spec.policies.empty()) {
    throw std::invalid_argument("campaign: compare needs at least one policy");
  }
  for (const SweepCampaignSpec& lane : lane_specs(spec)) validate_sweep_spec(lane);
}

}  // namespace

std::uint64_t policy_total_units(const PolicyCompareSpec& spec) {
  return static_cast<std::uint64_t>(spec.policies.size()) * sweep_total_units(spec.base);
}

std::string encode_policy_config(const PolicyCompareSpec& spec) {
  snapshot::ByteWriter w;
  w.u32(1);  // config version
  // The base grid reuses the sweep campaign's canonical encoding (its
  // mem_policy field is forced to baseline — lanes override it anyway,
  // so it must not perturb the fingerprint).
  SweepCampaignSpec base = spec.base;
  base.mem_policy = {};
  w.str(encode_sweep_config(base));
  w.u32(static_cast<std::uint32_t>(spec.policies.size()));
  for (const mem::MemPolicySpec& policy : spec.policies) mem::save_policy_spec(w, policy);
  return std::move(w).take();
}

PolicyCompareSpec decode_policy_config(const std::string& bytes) {
  snapshot::ByteReader r(bytes);
  const std::uint32_t version = r.u32();
  if (version != 1) {
    throw std::runtime_error("campaign: unsupported policy-compare config version " +
                             std::to_string(version));
  }
  PolicyCompareSpec spec;
  spec.base = decode_sweep_config(r.str());
  // A spec encodes to at least an empty name and a zero param count.
  const std::size_t policy_count = r.count(r.u32(), 8);
  for (std::size_t i = 0; i < policy_count; ++i) {
    spec.policies.push_back(mem::load_policy_spec(r));
  }
  if (!r.done()) {
    throw std::runtime_error("campaign: trailing bytes after the policy-compare config");
  }
  validate(spec);
  return spec;
}

PolicyCompareResult run_policy_compare(const PolicyCompareSpec& spec, CampaignOptions campaign) {
  validate(spec);
  campaign.config = encode_policy_config(spec);

  const std::vector<SweepCampaignSpec> lanes = lane_specs(spec);
  std::vector<scenario::ScenarioSpec> protos;
  for (const SweepCampaignSpec& lane : lanes) protos.push_back(sweep_proto(lane));
  const std::uint64_t groups_per_lane = sweep_total_units(spec.base);

  PolicyCompareResult result;
  result.campaign = run_campaign(
      policy_total_units(spec),
      [&](std::uint64_t unit) {
        const std::size_t lane = static_cast<std::size_t>(unit / groups_per_lane);
        return sweep_group_payload(lanes[lane], protos[lane], unit % groups_per_lane);
      },
      campaign);
  snapshot::StateHash digest;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    result.lanes.push_back(
        {spec.policies[i], fold_sweep_payloads(lanes[i], result.campaign, i * groups_per_lane,
                                               digest)});
  }
  result.digest = result.campaign.complete ? digest.value() : 0;
  return result;
}

}  // namespace mvqoe::campaign
