// Multi-process sweep campaigns: warm-start sweep grids on top of the
// campaign coordinator (DESIGN.md §13).
//
// One campaign unit = one (pressure state, run) warm-sweep group — the
// same unit the warm-start path already forks from one prepared world
// (runner::run_warm_group), so a campaign worker inherits the CoW
// machinery wholesale: the worker prepares the group's shared world
// once and forks its (fps, height) cells from it. The unit payload is
// the group's encoded CellRunOutcome vector; merging payloads in unit
// order reproduces run_sweep_grid_shared's grid exactly, so a resumed
// campaign's BENCH json and digest match an uninterrupted run byte for
// byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/coordinator.hpp"
#include "net/cc.hpp"
#include "runner/warm_sweep.hpp"
#include "snapshot/digest.hpp"

namespace mvqoe::campaign {

/// A serializable sweep grid description (the subset of the bench
/// proto-spec a campaign can checkpoint and resume).
struct SweepCampaignSpec {
  /// Paper scenario family ("fig09", "fig16", ...).
  std::string family = "fig16";
  int duration_s = 16;
  /// Organic background-app churn in the shared world phase.
  int organic_apps = 0;
  std::vector<mem::PressureLevel> states = {mem::PressureLevel::Normal};
  std::vector<int> fps = {24, 48, 60};
  std::vector<int> heights = {240, 360, 480, 720, 1080};
  int runs = 1;
  std::uint64_t seed = 5;
  /// Memory reclaim/kill policy every world in the grid runs. Baseline
  /// (the default) encodes to nothing, so historical checkpoint
  /// fingerprints are unchanged.
  mem::MemPolicySpec mem_policy;
  /// Link congestion controller every world in the grid runs. The fifo
  /// default likewise encodes to nothing.
  net::NetSpec net;
  /// Forked video-phase workers inside each group worker.
  int group_workers = 1;
};

/// Units are (state, run) groups in state-major order:
/// unit u -> (states[u / runs], run u % runs).
std::uint64_t sweep_total_units(const SweepCampaignSpec& spec);

/// Canonical wire encoding (checkpoint config) and its fingerprint.
/// group_workers is excluded — like --jobs it may differ across
/// resumes without changing the results.
std::string encode_sweep_config(const SweepCampaignSpec& spec);
SweepCampaignSpec decode_sweep_config(const std::string& bytes);
std::uint64_t sweep_config_fingerprint(const SweepCampaignSpec& spec);

/// Read a checkpoint file and reconstruct the sweep spec it was
/// recorded under (--resume without re-specifying the grid).
SweepCampaignSpec load_sweep_resume_config(const std::string& path);

struct SweepCampaignResult {
  /// The run_sweep_grid_shared-shaped grid (state-major cells, per-cell
  /// aggregates in run order). Valid when `campaign.complete`; a
  /// degraded campaign leaves the missing groups' runs counted as
  /// failures in their cells.
  std::vector<runner::SweepCellResult> cells;
  /// Order-sensitive digest over the completed unit payloads.
  std::uint64_t digest = 0;
  CampaignResult campaign;
};

/// Throws std::invalid_argument for a grid that cannot run: no runs, an
/// empty axis, a non-positive duration, or an unknown policy or link.
void validate_sweep_spec(const SweepCampaignSpec& spec);

/// The bench proto-spec the grid retargets per cell: one video session
/// on the family's device, organic churn in the world phase, and the
/// spec's memory policy and link.
scenario::ScenarioSpec sweep_proto(const SweepCampaignSpec& spec);

/// Run (state, run) group `group` of the grid (unit numbering of
/// sweep_total_units) from `proto` and encode its CellRunOutcome vector:
/// the campaign unit payload.
std::string sweep_group_payload(const SweepCampaignSpec& spec,
                                const scenario::ScenarioSpec& proto, std::uint64_t group);

/// Fold one grid's payloads — units [first_unit, first_unit +
/// sweep_total_units(spec)) of `campaign` — into its state-major cells,
/// each aggregated over its runs in run order. Every completed unit
/// mixes (unit, payload) into `digest`; a group the campaign did not
/// complete counts as one failure in each of its cells.
std::vector<runner::SweepCellResult> fold_sweep_payloads(const SweepCampaignSpec& spec,
                                                         const CampaignResult& campaign,
                                                         std::uint64_t first_unit,
                                                         snapshot::StateHash& digest);

/// Run (or resume) the sweep grid under the coordinator.
/// `campaign.config` / `campaign.fingerprint` are filled in from `spec`.
SweepCampaignResult run_sweep_campaign(const SweepCampaignSpec& spec, CampaignOptions campaign);

}  // namespace mvqoe::campaign
