#include "check/harness.hpp"

#include <stdexcept>

#include "scenario/driver.hpp"
#include "snapshot/digest.hpp"
#include "stats/rng.hpp"

namespace mvqoe::check {
namespace {

Violation meta_violation(const std::string& oracle, std::string detail, sim::Time offset) {
  Violation v;
  v.oracle = oracle;
  v.detail = std::move(detail);
  v.offset = offset;
  v.at = offset;
  return v;
}

}  // namespace

RunReport check_scenario(const scenario::ScenarioSpec& scen, const CheckOptions& opts) {
  RunReport report;
  // Full trace: the sched-state oracle reads every closed interval.
  scenario::ScenarioDriver drv(scen, trace::TraceLevel::Full);
  if (opts.perturb_at) drv.perturb_at(*opts.perturb_at);
  drv.start();
  drv.testbed().engine.set_livelock_limit(opts.livelock_limit);

  WorldObserver observer;
  OracleSuite suite;
  const auto sample = [&](bool final_obs) {
    const WorldObservation obs = observer.observe(drv, final_obs);
    const auto v = final_obs ? suite.final_check(obs) : suite.check(obs);
    if (v) {
      report.ok = false;
      report.violation = v;
    }
    return report.ok;
  };

  report.trail.push_back({drv.offset(), drv.state_digest()});
  if (!sample(false)) return report;
  while (!drv.done()) {
    drv.advance_to(drv.offset() + sim::sec(1));
    ++report.slices;
    report.trail.push_back({drv.offset(), drv.state_digest()});
    if (!sample(false)) return report;
  }
  report.final_digest = report.trail.back().digest;
  report.result = drv.finalize();
  if (!sample(true)) return report;

  if (!opts.meta_determinism) return report;

  // Run-twice identity: a clean re-execution must hit every slice
  // digest of the primary run. A perturbed primary run fails here —
  // that is the manufactured meta-determinism violation.
  const snapshot::replay::VerifyReport rerun = snapshot::replay::verify_trail(scen, report.trail);
  if (!rerun.ok) {
    report.ok = false;
    report.violation = meta_violation(
        "meta-determinism", "re-run " + snapshot::replay::format_report(rerun),
        rerun.mismatch_offset);
    return report;
  }

  // Checkpoint/restore identity: replay a fresh world to one
  // deterministically-chosen mid-run slice T and require the digest the
  // trail recorded there (restore == replay-to-T, DESIGN.md §10).
  if (report.trail.size() > 2) {
    std::uint64_t pick = stats::derive_seed(scen.seed, 0x4348454Bu /* "CHEK" */);
    const std::size_t index =
        1 + static_cast<std::size_t>(pick % (report.trail.size() - 2));
    const snapshot::replay::TrailEntry& entry = report.trail[index];
    const snapshot::replay::VerifyReport restore =
        snapshot::replay::verify_trail(scen, {entry});
    if (!restore.ok) {
      report.ok = false;
      report.violation = meta_violation(
          "checkpoint-restore", "restore " + snapshot::replay::format_report(restore),
          entry.offset);
      return report;
    }
  }
  return report;
}

// --- Campaign ----------------------------------------------------------------

RunRecord execute_fuzz_run(const FuzzOptions& opts, std::uint64_t index) {
  RunRecord record;
  record.index = index;
  try {
    const std::uint64_t run_seed = stats::derive_seed(opts.seed, index + 1);
    const scenario::ScenarioSpec spec = generate_scenario(run_seed, opts.generator);
    CheckOptions check = opts.check;
    if (static_cast<std::int64_t>(index) == opts.perturb_run) check.perturb_at = opts.perturb_offset;
    const RunReport report = check_scenario(spec, check);
    record.harness_ok = true;
    record.report_ok = report.ok;
    record.final_digest = report.final_digest;
    record.slices = report.slices;
    if (!report.ok && report.violation) {
      record.oracle = report.violation->oracle;
      record.detail = report.violation->detail;
      record.at = report.violation->at;
      record.offset = report.violation->offset;
    }
  } catch (const std::exception& e) {
    record.harness_ok = false;
    record.error = e.what();
  } catch (...) {
    record.harness_ok = false;
    record.error = "unknown exception";
  }
  return record;
}

namespace {

/// Fold one record into the campaign digest (order-sensitive).
void mix_run_record(snapshot::StateHash& hash, const RunRecord& record) {
  hash.mix(record.index);
  hash.mix(record.harness_ok ? 1 : 0);
  if (!record.harness_ok) {
    hash.mix_bytes(record.error);
    return;
  }
  hash.mix(record.report_ok ? 1 : 0);
  hash.mix(record.final_digest);
  hash.mix(static_cast<std::uint64_t>(record.slices));
  if (!record.report_ok) hash.mix_bytes(record.oracle);
}

/// Campaign digest over a complete, index-ordered record sequence.
std::uint64_t campaign_digest(const std::vector<RunRecord>& records) {
  snapshot::StateHash hash;
  for (const RunRecord& record : records) mix_run_record(hash, record);
  return hash.value();
}

}  // namespace

FuzzSummary summarize_records(const FuzzOptions& opts, const std::vector<RunRecord>& records) {
  FuzzSummary summary;
  summary.runs = static_cast<int>(records.size());
  for (const RunRecord& record : records) {
    if (record.harness_ok && record.report_ok) continue;
    ++summary.failed;
    FuzzFailure failure;
    failure.run = static_cast<int>(record.index);
    failure.run_seed = stats::derive_seed(opts.seed, record.index + 1);
    // The spec is a pure function of (run_seed, generator config), so
    // regenerating it here works for records produced in this process
    // and for records decoded from a worker's shard payload alike.
    failure.spec = generate_scenario(failure.run_seed, opts.generator);
    if (!record.harness_ok) {
      failure.violation.oracle = "exception";
      failure.violation.detail = record.error;
    } else {
      failure.violation.oracle = record.oracle;
      failure.violation.detail = record.detail;
      failure.violation.at = record.at;
      failure.violation.offset = record.offset;
    }
    summary.failures.push_back(std::move(failure));
  }
  summary.digest = campaign_digest(records);
  return summary;
}

void encode_run_record(snapshot::ByteWriter& w, const RunRecord& record) {
  w.u32(1);  // record version
  w.u64(record.index);
  w.b(record.harness_ok);
  if (!record.harness_ok) {
    w.str(record.error);
    return;
  }
  w.b(record.report_ok);
  w.u64(record.final_digest);
  w.i32(record.slices);
  if (!record.report_ok) {
    w.str(record.oracle);
    w.str(record.detail);
    w.i64(record.at);
    w.i64(record.offset);
  }
}

RunRecord decode_run_record(snapshot::ByteReader& r) {
  const std::uint32_t version = r.u32();
  if (version != 1) {
    throw std::runtime_error("campaign: unsupported run-record version " +
                             std::to_string(version));
  }
  RunRecord record;
  record.index = r.u64();
  record.harness_ok = r.b();
  if (!record.harness_ok) {
    record.error = r.str();
    return record;
  }
  record.report_ok = r.b();
  record.final_digest = r.u64();
  record.slices = r.i32();
  if (!record.report_ok) {
    record.oracle = r.str();
    record.detail = r.str();
    record.at = r.i64();
    record.offset = r.i64();
  }
  return record;
}

// --- Repro blobs -------------------------------------------------------------

snapshot::Snapshot save_repro(const Repro& repro) {
  snapshot::Snapshot snap;
  {
    snapshot::ByteWriter w;
    scenario::save_scenario(w, repro.spec);
    snap.put(snapshot::replay::kScenTag, std::move(w));
  }
  snapshot::ByteWriter w;
  w.u32(1);  // section version
  w.u64(repro.run_seed);
  w.str(repro.oracle);
  w.str(repro.detail);
  w.i64(repro.offset);
  w.i64(repro.perturb_at ? *repro.perturb_at : -1);
  snap.put(kReproTag, std::move(w));
  return snap;
}

Repro load_repro(const snapshot::Snapshot& blob) {
  Repro repro;
  {
    snapshot::ByteReader r(blob.require(snapshot::replay::kScenTag));
    repro.spec = scenario::load_scenario(r);
  }
  snapshot::ByteReader r(blob.require(kReproTag));
  const std::uint32_t version = r.u32();
  if (version != 1) throw std::runtime_error("repro: unsupported FZRP section version");
  repro.run_seed = r.u64();
  repro.oracle = r.str();
  repro.detail = r.str();
  repro.offset = r.i64();
  const sim::Time perturb = r.i64();
  if (perturb >= 0) repro.perturb_at = perturb;
  return repro;
}

ReproReport replay_repro(const Repro& repro, const CheckOptions& base) {
  CheckOptions opts = base;
  opts.perturb_at = repro.perturb_at;
  const RunReport report = check_scenario(repro.spec, opts);
  ReproReport out;
  out.violation = report.violation;
  out.reproduced = !report.ok && report.violation && report.violation->oracle == repro.oracle;
  return out;
}

// --- Localization ------------------------------------------------------------

Localization localize_violation(const scenario::ScenarioSpec& spec, const Violation& violation,
                                std::optional<sim::Time> perturb_at, const CheckOptions& opts) {
  Localization loc;
  if (perturb_at) {
    // Determinism failures reduce to golden-trace divergence: record the
    // clean run at 1-second granularity, then bisect the perturbed
    // replay against it.
    snapshot::replay::RecordOptions record;
    record.interval = sim::sec(1);
    const snapshot::Snapshot blob = snapshot::replay::record_run(spec, record);
    const snapshot::replay::DivergenceReport report =
        snapshot::replay::bisect_divergence(blob, *perturb_at);
    loc.located = report.diverged;
    loc.event_time = report.event_time;
    loc.event_seq = report.event_seq;
    loc.subsystem = report.subsystem;
    loc.probes = report.probes;
    loc.detail = snapshot::replay::format_report(report);
    return loc;
  }

  // Oracle violations: re-run the world, warm the stateful oracles up to
  // the slice before the recorded violation, then single-step engine
  // events through the violating slice re-checking after each one.
  scenario::ScenarioDriver drv(spec, trace::TraceLevel::Full);
  drv.start();
  sim::Engine& engine = drv.testbed().engine;
  engine.set_livelock_limit(opts.livelock_limit);
  WorldObserver observer;
  OracleSuite suite;
  const auto trip = [&](bool final_obs) {
    const WorldObservation obs = observer.observe(drv, final_obs);
    return final_obs ? suite.final_check(obs) : suite.check(obs);
  };

  if (trip(false)) {
    loc.detail = "violation already present at the first slice boundary (offset 0)";
    return loc;
  }
  const sim::Time warm_to = violation.offset > 0 ? violation.offset - sim::sec(1) : 0;
  while (drv.offset() < warm_to && !drv.done()) {
    drv.advance_to(drv.offset() + sim::sec(1));
    if (auto v = trip(false)) {
      loc.detail = "violation reproduced earlier than recorded (offset " +
                   std::to_string(drv.offset()) + "us)";
      return loc;
    }
  }

  constexpr int kMaxSteps = 2'000'000;
  const sim::Time slice_end = drv.video_start() + violation.offset;
  for (int steps = 1; steps <= kMaxSteps; ++steps) {
    const auto live = engine.live_events();
    if (live.empty() || live.front().first > slice_end) break;
    const auto [event_time, event_seq] = live.front();
    if (!engine.step()) break;
    if (auto v = trip(false)) {
      loc.located = true;
      loc.event_time = event_time;
      loc.event_seq = event_seq;
      loc.subsystem = v->oracle;
      loc.probes = steps;
      loc.detail = v->detail;
      return loc;
    }
  }
  loc.detail = "no single engine event tripped the oracle inside the violating slice "
               "(slice-level effect, e.g. a workload advance hook)";
  return loc;
}

}  // namespace mvqoe::check
