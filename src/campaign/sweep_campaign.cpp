#include "campaign/sweep_campaign.hpp"

#include <stdexcept>
#include <utility>

#include "snapshot/bytes.hpp"

namespace mvqoe::campaign {

std::uint64_t sweep_total_units(const SweepCampaignSpec& spec) {
  return static_cast<std::uint64_t>(spec.states.size()) * static_cast<std::uint64_t>(spec.runs);
}

std::string encode_sweep_config(const SweepCampaignSpec& spec) {
  snapshot::ByteWriter w;
  w.u32(1);  // config version
  w.str(spec.family);
  w.i32(spec.duration_s);
  w.i32(spec.organic_apps);
  w.u32(static_cast<std::uint32_t>(spec.states.size()));
  for (const auto state : spec.states) w.u8(static_cast<std::uint8_t>(state));
  w.u32(static_cast<std::uint32_t>(spec.fps.size()));
  for (const int f : spec.fps) w.i32(f);
  w.u32(static_cast<std::uint32_t>(spec.heights.size()));
  for (const int h : spec.heights) w.i32(h);
  w.i32(spec.runs);
  w.u64(spec.seed);
  // Optional tails (still config version 1), written only when
  // non-default so historical checkpoints keep their fingerprints. The
  // net tail follows the policy tail, so a non-fifo link forces the
  // policy spec out even at baseline (the decoder reads them in order).
  if (!spec.mem_policy.is_baseline() || !spec.net.is_default()) {
    mem::save_policy_spec(w, spec.mem_policy);
  }
  if (!spec.net.is_default()) net::save_net_spec(w, spec.net);
  return std::move(w).take();
}

SweepCampaignSpec decode_sweep_config(const std::string& bytes) {
  snapshot::ByteReader r(bytes);
  const std::uint32_t version = r.u32();
  if (version != 1) {
    throw std::runtime_error("campaign: unsupported sweep config version " +
                             std::to_string(version));
  }
  SweepCampaignSpec spec;
  spec.family = r.str();
  spec.duration_s = r.i32();
  spec.organic_apps = r.i32();
  spec.states.clear();
  const std::uint32_t state_count = r.u32();
  for (std::uint32_t i = 0; i < state_count; ++i) {
    spec.states.push_back(
        r.enum8("campaign: sweep config pressure state", mem::PressureLevel::Critical));
  }
  spec.fps.clear();
  const std::uint32_t fps_count = r.u32();
  for (std::uint32_t i = 0; i < fps_count; ++i) spec.fps.push_back(r.i32());
  spec.heights.clear();
  const std::uint32_t height_count = r.u32();
  for (std::uint32_t i = 0; i < height_count; ++i) spec.heights.push_back(r.i32());
  spec.runs = r.i32();
  spec.seed = r.u64();
  if (!r.done()) spec.mem_policy = mem::load_policy_spec(r);
  if (!r.done()) spec.net = net::load_net_spec(r);
  if (!r.done()) {
    throw std::runtime_error("campaign: trailing bytes after the sweep config");
  }
  validate_sweep_spec(spec);
  return spec;
}

std::uint64_t sweep_config_fingerprint(const SweepCampaignSpec& spec) {
  snapshot::StateHash hash;
  hash.mix_bytes(encode_sweep_config(spec));
  return hash.value();
}

SweepCampaignSpec load_sweep_resume_config(const std::string& path) {
  const CheckpointState state = read_checkpoint_file(path);
  try {
    return decode_sweep_config(state.config);
  } catch (const std::exception& e) {
    throw std::runtime_error("campaign: " + path + ": " + e.what());
  }
}

void validate_sweep_spec(const SweepCampaignSpec& spec) {
  if (spec.runs <= 0) throw std::invalid_argument("campaign: sweep runs must be >= 1");
  if (spec.states.empty() || spec.fps.empty() || spec.heights.empty()) {
    throw std::invalid_argument("campaign: sweep grid has an empty axis");
  }
  if (spec.duration_s <= 0) {
    throw std::invalid_argument("campaign: sweep duration must be >= 1s");
  }
  mem::validate_policy_spec(spec.mem_policy);
  net::validate_net_spec(spec.net);
}

scenario::ScenarioSpec sweep_proto(const SweepCampaignSpec& spec) {
  scenario::ScenarioSpec proto;
  proto.family = spec.family;
  proto.organic_background_apps = spec.organic_apps;
  proto.mem_policy = spec.mem_policy;
  proto.net = spec.net;
  scenario::VideoWorkloadSpec session;
  session.duration_s = spec.duration_s;
  proto.workloads.emplace_back(std::move(session));
  return proto;
}

std::string sweep_group_payload(const SweepCampaignSpec& spec,
                                const scenario::ScenarioSpec& proto, std::uint64_t group) {
  const auto state = spec.states.at(static_cast<std::size_t>(group) /
                                    static_cast<std::size_t>(spec.runs));
  const int run = static_cast<int>(group % static_cast<std::uint64_t>(spec.runs));
  // The group seed depends on (seed, state, run) only, so grids that
  // differ in policy or link boot identically-seeded worlds.
  const std::vector<runner::CellRunOutcome> outcomes = runner::run_warm_group(
      proto, state, run, spec.fps, spec.heights, spec.seed, spec.group_workers);
  snapshot::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(outcomes.size()));
  for (const runner::CellRunOutcome& outcome : outcomes) runner::encode_cell_outcome(w, outcome);
  return std::move(w).take();
}

std::vector<runner::SweepCellResult> fold_sweep_payloads(const SweepCampaignSpec& spec,
                                                         const CampaignResult& campaign,
                                                         std::uint64_t first_unit,
                                                         snapshot::StateHash& digest) {
  std::vector<runner::SweepCellResult> cells;
  for (const auto state : spec.states) {
    for (const int f : spec.fps) {
      for (const int h : spec.heights) {
        runner::SweepCellResult cell;
        cell.height = h;
        cell.fps = f;
        cell.state = state;
        cell.cell_seed =
            runner::sweep_video_seed(runner::sweep_group_seed(spec.seed, state, 0), h, f);
        cells.push_back(cell);
      }
    }
  }

  const std::size_t cells_per_state = spec.fps.size() * spec.heights.size();
  for (std::uint64_t group = 0; group < sweep_total_units(spec); ++group) {
    const std::size_t unit = static_cast<std::size_t>(first_unit + group);
    const std::size_t first_cell =
        static_cast<std::size_t>(group) / static_cast<std::size_t>(spec.runs) * cells_per_state;
    if (!campaign.completed[unit]) {
      for (std::size_t c = 0; c < cells_per_state; ++c) ++cells[first_cell + c].failures;
      continue;
    }
    digest.mix(unit);
    digest.mix_bytes(campaign.payloads[unit]);
    snapshot::ByteReader r(campaign.payloads[unit]);
    const std::uint32_t count = r.u32();
    if (count != cells_per_state) {
      throw std::runtime_error("campaign: sweep unit " + std::to_string(unit) + " carries " +
                               std::to_string(count) + " cells, grid has " +
                               std::to_string(cells_per_state));
    }
    for (std::size_t c = 0; c < cells_per_state; ++c) {
      const runner::CellRunOutcome outcome = runner::decode_cell_outcome(r);
      runner::SweepCellResult& cell = cells[first_cell + c];
      if (outcome.ok) {
        cell.aggregate.add(outcome.outcome);
      } else {
        ++cell.failures;
      }
    }
    if (!r.done()) {
      throw std::runtime_error("campaign: trailing bytes in sweep unit " + std::to_string(unit));
    }
  }
  return cells;
}

SweepCampaignResult run_sweep_campaign(const SweepCampaignSpec& spec, CampaignOptions campaign) {
  validate_sweep_spec(spec);
  campaign.config = encode_sweep_config(spec);
  campaign.fingerprint = sweep_config_fingerprint(spec);

  const scenario::ScenarioSpec proto = sweep_proto(spec);
  SweepCampaignResult result;
  result.campaign = run_campaign(
      sweep_total_units(spec),
      [&](std::uint64_t unit) { return sweep_group_payload(spec, proto, unit); }, campaign);
  snapshot::StateHash digest;
  result.cells = fold_sweep_payloads(spec, result.campaign, 0, digest);
  result.digest = result.campaign.complete ? digest.value() : 0;
  return result;
}

}  // namespace mvqoe::campaign
