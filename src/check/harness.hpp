// Fuzz harness: runs one scenario under the full oracle suite at every
// slice boundary, then proves meta-determinism (run-twice digest
// identity and checkpoint-at-T/restore digest identity), reduces a
// campaign's runs to a summary with a lane-invariant digest (the runs
// themselves execute under campaign::run_fuzz_campaign), and packs
// failing runs into self-contained repro blobs (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/generator.hpp"
#include "check/oracles.hpp"
#include "snapshot/blob.hpp"
#include "snapshot/replay/record.hpp"

namespace mvqoe::check {

struct CheckOptions {
  /// Run the run-twice and checkpoint/restore digest-identity checks
  /// (two extra executions of the world).
  bool meta_determinism = true;
  /// Test/demo hook: flip one SystemActivity RNG bit at this offset in
  /// the primary run — manufactures a real meta-determinism failure.
  std::optional<sim::Time> perturb_at{};
  /// Engine livelock tripwire threshold (0 = disabled).
  std::uint64_t livelock_limit = 500000;
};

/// One scenario checked end to end.
struct RunReport {
  bool ok = true;
  std::optional<Violation> violation;
  /// Digest trail: full-state digest at every slice boundary.
  std::vector<snapshot::replay::TrailEntry> trail;
  std::uint64_t final_digest = 0;
  int slices = 0;
  /// The finalized run; empty (no sessions) when an oracle tripped
  /// before the last slice.
  scenario::ScenarioResult result;
};

RunReport check_scenario(const scenario::ScenarioSpec& scen, const CheckOptions& opts = {});

// --- Campaign ----------------------------------------------------------------

struct FuzzOptions {
  std::uint64_t seed = 1;
  int runs = 100;
  GeneratorConfig generator;
  CheckOptions check;
  /// Perturb exactly this run index (-1 = none) at perturb_offset —
  /// the seeded failure-injection demo.
  int perturb_run = -1;
  sim::Time perturb_offset = sim::sec(2);
};

struct FuzzFailure {
  int run = 0;
  std::uint64_t run_seed = 0;
  scenario::ScenarioSpec spec;
  Violation violation;
};

/// The flattened outcome of one fuzz run — everything the campaign
/// digest and failure reporting need, and nothing that cannot cross a
/// process boundary. A fuzz campaign (src/campaign/fuzz_campaign) gets
/// every run as an encoded RunRecord, in either lane of the campaign,
/// and summarize_records computes its digest from them.
struct RunRecord {
  std::uint64_t index = 0;
  /// False when the harness itself threw (world construction, OOM, ...);
  /// `error` carries the exception text and the report fields are unset.
  bool harness_ok = false;
  std::string error;
  /// Oracle verdict of the checked run (valid when harness_ok).
  bool report_ok = false;
  std::uint64_t final_digest = 0;
  int slices = 0;
  /// Violation context (empty/zero when report_ok).
  std::string oracle;
  std::string detail;
  sim::Time at = 0;
  sim::Time offset = 0;
};

/// Execute run `index` of a campaign: derive the run seed, generate the
/// scenario, check it, flatten the outcome. Run i's world is
/// generate_scenario(derive_seed(seed, i + 1)). Never throws — harness
/// exceptions become harness_ok == false records.
RunRecord execute_fuzz_run(const FuzzOptions& opts, std::uint64_t index);

/// Wire encoding of a RunRecord (the campaign worker's shard payload).
void encode_run_record(snapshot::ByteWriter& w, const RunRecord& record);
RunRecord decode_run_record(snapshot::ByteReader& r);

struct FuzzSummary {
  int runs = 0;
  int failed = 0;
  /// Lane-invariant digest over (index, ok, oracle, final digest,
  /// slices) in run-index order — two invocations with the same seed
  /// must print the same value regardless of --jobs or --procs.
  std::uint64_t digest = 0;
  std::vector<FuzzFailure> failures;
};

/// Rebuild the FuzzSummary (failure list with regenerated specs, digest)
/// from a complete, index-ordered record sequence.
FuzzSummary summarize_records(const FuzzOptions& opts, const std::vector<RunRecord>& records);

// --- Repro blobs -------------------------------------------------------------

/// MVQS blob section carrying the failure context next to the SCEN spec.
inline constexpr std::uint32_t kReproTag = snapshot::tag("FZRP");

struct Repro {
  scenario::ScenarioSpec spec;
  std::uint64_t run_seed = 0;
  std::string oracle;
  std::string detail;
  sim::Time offset = 0;
  std::optional<sim::Time> perturb_at;
};

snapshot::Snapshot save_repro(const Repro& repro);
Repro load_repro(const snapshot::Snapshot& blob);

struct ReproReport {
  /// The recorded oracle tripped again.
  bool reproduced = false;
  std::optional<Violation> violation;
};
ReproReport replay_repro(const Repro& repro, const CheckOptions& base = {});

// --- Localization ------------------------------------------------------------

/// Name the first diverging/violating event of a failing spec.
/// Meta-determinism failures (perturb_at set) go through golden-trace
/// bisection (snapshot/replay); oracle violations re-run the world and
/// single-step the violating slice, re-checking the suite after every
/// event. Best-effort: located=false when the step budget runs out.
struct Localization {
  bool located = false;
  sim::Time event_time = 0;
  std::uint64_t event_seq = 0;
  /// Diverging subsystem (bisection) or tripped oracle (event stepping).
  std::string subsystem;
  int probes = 0;
  std::string detail;
};

Localization localize_violation(const scenario::ScenarioSpec& spec, const Violation& violation,
                                std::optional<sim::Time> perturb_at,
                                const CheckOptions& opts = {});

}  // namespace mvqoe::check
