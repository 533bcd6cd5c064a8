// Multi-process fuzz campaigns: check/harness fuzzing on top of the
// campaign coordinator (DESIGN.md §13).
//
// One campaign unit = one fuzz run. The worker executes
// check::execute_fuzz_run and ships the encoded RunRecord back as the
// unit payload; the coordinator checkpoints payloads per shard, so a
// killed campaign resumes with the completed runs' records intact and
// the final summary — including the jobs-invariant digest — is
// byte-identical to an uninterrupted serial run.
//
// The checkpoint stores the canonical encoding of the FuzzOptions that
// produced it (minus --jobs/--procs, which may legally differ between
// the original and resumed invocations) plus its fingerprint; --resume
// reconstructs the options from the blob and refuses fingerprint
// mismatches, so a checkpoint can never silently continue under a
// different campaign configuration.
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

/// Run (or resume) a fuzz campaign under the coordinator.
/// `campaign.config` is filled in from `fuzz`; `fuzz.jobs` is ignored.
FuzzCampaignResult run_fuzz_campaign(const check::FuzzOptions& fuzz, CampaignOptions campaign);

}  // namespace mvqoe::campaign
