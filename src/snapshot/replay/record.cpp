#include "snapshot/replay/record.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "scenario/driver.hpp"

namespace mvqoe::snapshot::replay {

namespace {

std::optional<std::string> first_digest_diff(
    const std::vector<std::pair<std::string, std::uint64_t>>& a,
    const std::vector<std::pair<std::string, std::uint64_t>>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].second != b[i].second) return a[i].first;
  }
  if (a.size() != b.size()) return std::string("sections");
  return std::nullopt;
}

}  // namespace

Snapshot record_run(const scenario::ScenarioSpec& scen, const RecordOptions& options) {
  if (options.interval <= 0 || options.interval % sim::sec(1) != 0) {
    throw std::invalid_argument("snapshot: checkpoint interval must be whole positive seconds");
  }
  scenario::ScenarioDriver driver(scen);
  if (options.perturb_at.has_value()) driver.perturb_at(*options.perturb_at);
  driver.start();

  std::vector<TrailEntry> trail;
  trail.push_back(TrailEntry{0, driver.state_digest()});
  while (!driver.done()) {
    if (options.stop != nullptr && *options.stop != 0) break;
    driver.advance_to(driver.offset() + options.interval);
    trail.push_back(TrailEntry{driver.offset(), driver.state_digest()});
  }

  Snapshot snap;
  {
    ByteWriter w;
    scenario::save_scenario(w, scen);
    snap.put(kScenTag, std::move(w));
  }
  // Subsystem state sections at the final trail point — captured before
  // finalize(), which disarms the injector and would shift the digests.
  driver.save_state(snap);
  const auto subsystem = driver.subsystem_digests();
  const sim::Time video_start = driver.video_start();
  const scenario::ScenarioResult result = driver.finalize();
  {
    ByteWriter w;
    w.u32(1);  // section version
    w.i64(options.interval);
    w.i64(video_start);
    w.i64(trail.back().offset);
    w.u8(static_cast<std::uint8_t>(result.status));
    w.u64(trail.back().digest);
    snap.put(kMetaTag, std::move(w));
  }
  {
    ByteWriter w;
    w.u32(1);  // section version
    w.u64(trail.size());
    for (const TrailEntry& entry : trail) {
      w.i64(entry.offset);
      w.u64(entry.digest);
    }
    snap.put(kTrailTag, std::move(w));
  }
  {
    ByteWriter w;
    w.u32(1);  // section version
    w.u64(subsystem.size());
    for (const auto& [name, digest] : subsystem) {
      w.str(name);
      w.u64(digest);
    }
    snap.put(kSubsystemDigestsTag, std::move(w));
  }
  return snap;
}

ReplayMeta load_meta(const Snapshot& blob) {
  ByteReader r(blob.require(kMetaTag));
  const std::uint32_t version = r.u32();
  if (version != 1) throw std::runtime_error("snapshot: unsupported META version");
  ReplayMeta meta;
  meta.interval = r.i64();
  meta.video_start = r.i64();
  meta.end_offset = r.i64();
  meta.status = r.u8();
  meta.final_digest = r.u64();
  return meta;
}

std::vector<TrailEntry> load_trail(const Snapshot& blob) {
  ByteReader r(blob.require(kTrailTag));
  const std::uint32_t version = r.u32();
  if (version != 1) throw std::runtime_error("snapshot: unsupported TRAL version");
  // An i64 offset and a u64 digest per entry.
  std::vector<TrailEntry> trail(r.count(r.u64(), 16));
  for (TrailEntry& entry : trail) {
    entry.offset = r.i64();
    entry.digest = r.u64();
  }
  if (trail.empty()) throw std::runtime_error("snapshot: empty digest trail");
  return trail;
}

std::vector<std::pair<std::string, std::uint64_t>> load_subsystem_digests(const Snapshot& blob) {
  ByteReader r(blob.require(kSubsystemDigestsTag));
  const std::uint32_t version = r.u32();
  if (version != 1) throw std::runtime_error("snapshot: unsupported SDIG version");
  // A str (at least its u32 length) and a u64 digest per entry.
  std::vector<std::pair<std::string, std::uint64_t>> out(r.count(r.u64(), 12));
  for (auto& [name, digest] : out) {
    name = r.str();
    digest = r.u64();
  }
  return out;
}

namespace {

scenario::ScenarioSpec load_blob_scenario(const Snapshot& blob) {
  ByteReader r(blob.require(kScenTag));
  return scenario::load_scenario(r);
}

}  // namespace

VerifyReport verify_trail(const scenario::ScenarioSpec& scen, const std::vector<TrailEntry>& trail,
                          std::optional<sim::Time> perturb_at) {
  scenario::ScenarioDriver driver(scen);
  if (perturb_at.has_value()) driver.perturb_at(*perturb_at);
  driver.start();

  VerifyReport report;
  for (std::size_t i = 0; i < trail.size(); ++i) {
    const TrailEntry& entry = trail[i];
    if (entry.offset > driver.offset()) driver.advance_to(entry.offset);
    ++report.checked;
    const std::uint64_t actual = driver.state_digest();
    if (driver.offset() != entry.offset || actual != entry.digest) {
      report.mismatch_index = i;
      report.mismatch_offset = entry.offset;
      report.reached_offset = driver.offset();
      report.expected = entry.digest;
      report.actual = actual;
      return report;
    }
  }
  report.ok = true;
  return report;
}

VerifyReport verify_replay(const Snapshot& blob, std::optional<sim::Time> perturb_at) {
  return verify_trail(load_blob_scenario(blob), load_trail(blob), perturb_at);
}

DivergenceReport bisect_divergence(const Snapshot& blob, sim::Time perturb_at) {
  const scenario::ScenarioSpec scen = load_blob_scenario(blob);
  const std::vector<TrailEntry> trail = load_trail(blob);

  DivergenceReport report;
  // Each probe is a fresh deterministic replay with the perturbation
  // applied at its scripted offset, advanced to one trail boundary.
  const auto probe_matches = [&](std::size_t m) {
    ++report.probes;
    return verify_trail(scen, {trail[m]}, perturb_at).ok;
  };

  // Divergence is monotone (a perturbed state never re-converges with
  // the clean trail), so binary search finds the first bad boundary.
  std::size_t lo = 0;
  std::size_t hi = trail.size() - 1;
  if (probe_matches(hi)) {
    report.diverged = false;  // perturbation never became visible
    return report;
  }
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (probe_matches(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  report.diverged = true;
  report.interval_index = lo;
  report.interval_start = lo == 0 ? 0 : trail[lo - 1].offset;
  report.interval_end = trail[lo].offset;

  // Lockstep pinpoint: advance a clean and a perturbed driver to the
  // last matching boundary (identical state by determinism), then step
  // event-by-event. The perturbation applies once the clock passes
  // perturb_at — exactly the slice semantics: events at time <= S run
  // clean, the first event after S sees the corrupted stream.
  scenario::ScenarioDriver clean(scen);
  scenario::ScenarioDriver dirty(scen);
  clean.start();
  dirty.start();
  if (report.interval_start > 0) {
    clean.advance_to(report.interval_start);
    dirty.advance_to(report.interval_start);
  }
  sim::Engine& clean_engine = clean.testbed().engine;
  sim::Engine& dirty_engine = dirty.testbed().engine;
  const sim::Time s_abs = dirty.video_start() + perturb_at;
  while (true) {
    // The (time, seq) of the next live event; none once the queue drained.
    const auto live = dirty_engine.live_events();
    const bool drained = live.empty();
    if (!dirty.perturbed() && (drained || live.front().first > s_abs)) {
      dirty.perturb_now();
    }
    if (dirty.perturbed()) {
      // Until the perturbation lands the two drivers are identical by
      // construction; digest comparison only starts afterwards.
      const auto diff = first_digest_diff(clean.subsystem_digests(), dirty.subsystem_digests());
      if (diff.has_value()) {
        report.event_time = drained ? dirty_engine.now() : live.front().first;
        report.event_seq = drained ? 0 : live.front().second;
        report.subsystem = *diff;
        return report;
      }
    }
    if (drained) break;  // queues drained without divergence
    clean_engine.step();
    dirty_engine.step();
  }
  // Boundary digests disagreed but the lockstep walk found no differing
  // subsystem — should be unreachable; report the interval alone.
  report.subsystem = "unknown";
  return report;
}

std::string format_report(const VerifyReport& report) {
  std::ostringstream out;
  if (report.ok) {
    out << "OK: " << report.checked << " checkpoints replayed digest-identical";
  } else if (report.reached_offset != report.mismatch_offset) {
    out << "MISMATCH at checkpoint " << report.mismatch_index << " (t=+"
        << sim::to_seconds(report.mismatch_offset) << "s): the replay reached t=+"
        << sim::to_seconds(report.reached_offset) << "s instead";
  } else {
    out << "MISMATCH at checkpoint " << report.mismatch_index << " (t=+"
        << sim::to_seconds(report.mismatch_offset) << "s): expected " << std::hex
        << report.expected << ", got " << report.actual;
  }
  return out.str();
}

std::string format_report(const DivergenceReport& report) {
  std::ostringstream out;
  if (!report.diverged) {
    out << "no divergence: replay matches the recorded trail";
    return out.str();
  }
  out << "diverged in checkpoint interval " << report.interval_index << " (+"
      << sim::to_seconds(report.interval_start) << "s, +"
      << sim::to_seconds(report.interval_end) << "s] after " << report.probes
      << " probes; first diverging event: t=" << sim::to_seconds(report.event_time)
      << "s seq=" << report.event_seq << " subsystem=" << report.subsystem;
  return out.str();
}

}  // namespace mvqoe::snapshot::replay
