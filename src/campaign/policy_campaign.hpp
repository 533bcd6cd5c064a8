// Policy-compare campaigns: the "what if Android did X" experiment
// (DESIGN.md §16) on top of the campaign coordinator.
//
// A compare runs the SAME warm-start sweep grid once per memory policy.
// One campaign unit = one (policy, state, run) warm-sweep group in
// policy-major order, and every policy lane reuses the same
// sweep_group_seed(base, state, run) world stream — so lane p and lane q
// boot identically-seeded device populations and differ only in how
// their reclaim/kill policies respond. Unit payloads are the same
// encoded CellRunOutcome vectors the sweep campaign ships; merging them
// in unit order is deterministic, so the compare digest is invariant to
// --jobs/--procs and to kill-and-resume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/sweep_campaign.hpp"

namespace mvqoe::campaign {

/// A serializable policy-compare description: one sweep grid (the
/// `base.mem_policy` field is ignored — each lane overrides it; every
/// other field, the link included, holds in every lane) plus the
/// ordered list of policies to run it under.
struct PolicyCompareSpec {
  SweepCampaignSpec base;
  std::vector<mem::MemPolicySpec> policies;
};

/// Units are policy-major: unit u -> (policies[u / G], group u % G)
/// where G = sweep_total_units(base).
std::uint64_t policy_total_units(const PolicyCompareSpec& spec);

/// Canonical wire encoding (checkpoint config) and its fingerprint.
/// base.group_workers is excluded (parallelism knob, free to differ
/// across resumes).
std::string encode_policy_config(const PolicyCompareSpec& spec);
PolicyCompareSpec decode_policy_config(const std::string& bytes);
std::uint64_t policy_config_fingerprint(const PolicyCompareSpec& spec);

/// Read a checkpoint file and reconstruct the compare spec it was
/// recorded under (--resume without re-specifying the grid).
PolicyCompareSpec load_policy_resume_config(const std::string& path);

/// One policy's lane of the compare: the full sweep grid it produced.
struct PolicyLane {
  mem::MemPolicySpec policy;
  std::vector<runner::SweepCellResult> cells;
};

struct PolicyCompareResult {
  /// One lane per spec.policies entry, in spec order. Valid when
  /// `campaign.complete`; a degraded campaign counts the missing
  /// groups' runs as failures in their cells.
  std::vector<PolicyLane> lanes;
  /// Order-sensitive digest over the completed unit payloads.
  std::uint64_t digest = 0;
  CampaignResult campaign;
};

/// Run (or resume) the compare under the coordinator.
/// `campaign.config` / `campaign.fingerprint` are filled in from `spec`.
PolicyCompareResult run_policy_compare(const PolicyCompareSpec& spec, CampaignOptions campaign);

}  // namespace mvqoe::campaign
