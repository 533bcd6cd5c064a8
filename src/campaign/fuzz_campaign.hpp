// Fuzz campaigns: check/harness fuzzing on top of the campaign
// coordinator (DESIGN.md §13), in either of its lanes.
//
// One campaign unit = one fuzz run. The unit executes
// check::execute_fuzz_run and returns the encoded RunRecord as its
// payload; the coordinator checkpoints payloads as they land, so a
// killed campaign resumes with the completed runs' records intact and
// the final summary — including the lane-invariant digest — is
// byte-identical to an uninterrupted serial run.
//
// The checkpoint stores the canonical encoding of the FuzzOptions that
// produced it (--jobs and --procs are CampaignOptions, so they may
// legally differ between the original and resumed invocations) plus its
// fingerprint; --resume reconstructs the options from the blob and
// refuses fingerprint mismatches, so a checkpoint can never silently
// continue under a different campaign configuration.
#pragma once

#include <cstdint>
#include <string>

#include "campaign/coordinator.hpp"
#include "check/harness.hpp"

namespace mvqoe::campaign {

/// Canonical wire encoding of the digest-relevant FuzzOptions (seed,
/// runs, generator, check options, perturb hooks — everything except
/// the parallelism knobs). Stored verbatim in the checkpoint; --resume
/// decodes it with load_resume_config.
std::string encode_fuzz_config(const check::FuzzOptions& opts);
check::FuzzOptions decode_fuzz_config(const std::string& bytes);

struct FuzzCampaignResult {
  /// Valid when `campaign.complete`; for a degraded campaign the
  /// failure list covers the completed runs and `summary.digest` is 0
  /// (a partial campaign has no comparable digest).
  check::FuzzSummary summary;
  CampaignResult campaign;
};

/// Run (or resume) a fuzz campaign under the coordinator: in process on
/// `campaign.jobs` threads when `campaign.procs` is 0, else in worker
/// processes. `campaign.config` is filled in from `fuzz`.
FuzzCampaignResult run_fuzz_campaign(const check::FuzzOptions& fuzz, CampaignOptions campaign);

}  // namespace mvqoe::campaign
