// Snapshot subsystem tests: blob container round-trips, the
// checkpoint/restore round-trip invariant across every scenario family,
// golden-trace regression against a committed blob, and divergence
// bisection.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "scenario/driver.hpp"
#include "scenario/spec.hpp"
#include "snapshot/blob.hpp"
#include "snapshot/digest.hpp"
#include "snapshot/replay/record.hpp"

namespace mvqoe::snapshot {
namespace {

using scenario::ScenarioDriver;
using scenario::ScenarioSpec;
using scenario::single_video;
using sim::sec;

TEST(Blob, RoundTripPreservesSectionsBytesAndDigest) {
  Snapshot snap;
  ByteWriter w;
  w.u32(1);
  w.i64(-42);
  w.f64(0.1);
  w.str("hello");
  snap.put(tag("ENGN"), std::move(w));
  snap.put(tag("XQZW"), std::string("\x01\x00\xff", 3));  // future/unknown section

  const std::string bytes = snap.serialize();
  const Snapshot parsed = Snapshot::parse(bytes);
  ASSERT_EQ(parsed.sections().size(), 2u);
  EXPECT_EQ(parsed.sections()[0].tag, tag("ENGN"));
  EXPECT_EQ(parsed.sections()[1].tag, tag("XQZW"));
  EXPECT_EQ(parsed.sections()[1].bytes, std::string("\x01\x00\xff", 3));
  EXPECT_EQ(parsed.digest(), snap.digest());
  EXPECT_EQ(parsed.serialize(), bytes);

  ByteReader r(parsed.require(tag("ENGN")));
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 0.1);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Blob, ParseRejectsCorruptInput) {
  Snapshot snap;
  snap.put(tag("ENGN"), std::string("abcd"));
  std::string bytes = snap.serialize();

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(Snapshot::parse(bad_magic), std::exception);
  EXPECT_THROW(Snapshot::parse(bytes.substr(0, bytes.size() - 2)), std::exception);
  EXPECT_THROW(Snapshot::parse(""), std::exception);
}

TEST(Blob, FileRoundTrip) {
  Snapshot snap;
  snap.put(tag("SCEN"), std::string("payload"));
  const std::string path = ::testing::TempDir() + "mvqoe_blob_roundtrip.blob";
  ASSERT_TRUE(Snapshot::write_file(path, snap));
  const Snapshot loaded = Snapshot::read_file(path);
  EXPECT_EQ(loaded.digest(), snap.digest());
  std::remove(path.c_str());
  EXPECT_THROW(Snapshot::read_file(path), std::exception);
}

// The tentpole contract: a straight run and a checkpoint-at-T restore
// (replay to T, digest-verified) that then runs to completion produce
// identical digests — for several T per scenario, across every family.
TEST(Replay, RoundTripInvariantAcrossAllFamilies) {
  for (const std::string& family : scenario::scenario_families()) {
    const ScenarioSpec scen =
        single_video(family, 480, 30, 12, mem::PressureLevel::Moderate, 21);

    const Snapshot blob = replay::record_run(scen, {sec(4), std::nullopt});
    const auto trail = replay::load_trail(blob);
    const auto meta = replay::load_meta(blob);
    ASSERT_GE(trail.size(), 4u) << family;  // 0s + at least 4/8/12

    for (const sim::Time t : {sec(4), sec(8), sec(12)}) {
      SCOPED_TRACE(family + " T=" + std::to_string(sim::to_seconds(t)));
      ScenarioDriver driver(scen);
      driver.start();
      ASSERT_TRUE(driver.advance_to(t));
      // "Restore to T": the replayed state must digest-match the trail...
      std::size_t index = trail.size();
      for (std::size_t i = 0; i < trail.size(); ++i) {
        if (trail[i].offset == t) index = i;
      }
      ASSERT_LT(index, trail.size());
      EXPECT_EQ(driver.state_digest(), trail[index].digest);
      // ...and running on from the restored state must land exactly on
      // the straight run's final state.
      while (!driver.done()) {
        driver.advance_to(driver.offset() + sec(4));
      }
      EXPECT_EQ(driver.offset(), meta.end_offset);
      EXPECT_EQ(driver.state_digest(), meta.final_digest);
    }
  }
}

TEST(Replay, VerifyPassesCleanAndCatchesPerturbation) {
  const ScenarioSpec scen =
      single_video("fig16", 720, 48, 12, mem::PressureLevel::Normal, 7);
  const Snapshot blob = replay::record_run(scen, {sec(4), std::nullopt});

  const auto clean = replay::verify_replay(blob);
  EXPECT_TRUE(clean.ok) << replay::format_report(clean);

  // One flipped RNG bit at +6s: the first checkpoint at or after the
  // perturbation (+8s) must mismatch.
  const auto dirty = replay::verify_replay(blob, sec(6));
  ASSERT_FALSE(dirty.ok);
  EXPECT_EQ(dirty.mismatch_offset, sec(8));
  EXPECT_NE(dirty.expected, dirty.actual);
}

// A trail doctored to run past the end of the replay — the final digest
// repeated 10 s after the run ended — must fail: verify_trail requires
// the replay to reach each entry's offset, not only its digest.
TEST(Replay, TrailPastTheReplayEndFailsVerify) {
  const ScenarioSpec scen =
      single_video("fig16", 1080, 30, 4, mem::PressureLevel::Normal, 1);
  const Snapshot blob = replay::record_run(scen, {sec(1), std::nullopt});
  std::vector<replay::TrailEntry> trail = replay::load_trail(blob);
  const replay::TrailEntry last = trail.back();
  trail.push_back({last.offset + sec(10), last.digest});

  const replay::VerifyReport report = replay::verify_trail(scen, trail);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.checked, trail.size());
  EXPECT_EQ(report.mismatch_index, trail.size() - 1);
  EXPECT_EQ(report.mismatch_offset, last.offset + sec(10));
  EXPECT_EQ(report.reached_offset, last.offset);
  EXPECT_EQ(report.actual, report.expected);  // the digest alone would pass
  const std::string message = replay::format_report(report);
  const auto seconds = [](sim::Time t) {
    return "t=+" + std::to_string(static_cast<long>(sim::to_seconds(t))) + "s";
  };
  EXPECT_NE(message.find(seconds(last.offset + sec(10))), std::string::npos) << message;
  EXPECT_NE(message.find(seconds(last.offset)), std::string::npos) << message;

  // The same trail inside a blob fails verify_replay (mvqoe_replay verify).
  Snapshot doctored;
  for (const Snapshot::Section& section : blob.sections()) {
    if (section.tag != replay::kTrailTag) {
      doctored.put(section.tag, section.bytes);
      continue;
    }
    ByteWriter w;
    w.u32(1);  // TRAL section version
    w.u64(trail.size());
    for (const replay::TrailEntry& entry : trail) {
      w.i64(entry.offset);
      w.u64(entry.digest);
    }
    doctored.put(replay::kTrailTag, std::move(w));
  }
  EXPECT_TRUE(replay::verify_replay(blob).ok);
  EXPECT_FALSE(replay::verify_replay(doctored).ok);
}

TEST(Replay, BisectPinpointsInjectedPerturbation) {
  const ScenarioSpec scen =
      single_video("fig16", 720, 48, 12, mem::PressureLevel::Normal, 7);
  const Snapshot blob = replay::record_run(scen, {sec(4), std::nullopt});

  const auto report = replay::bisect_divergence(blob, sec(6));
  ASSERT_TRUE(report.diverged);
  // Perturbed at +6s => divergence lies in the (+4s, +8s] interval.
  EXPECT_EQ(report.interval_start, sec(4));
  EXPECT_EQ(report.interval_end, sec(8));
  EXPECT_EQ(report.subsystem, "sysact");  // the perturbed RNG's owner
  // The first diverging event is the first one after the perturbation.
  const auto meta = replay::load_meta(blob);
  EXPECT_GT(report.event_time, meta.video_start + sec(6));
  EXPECT_LE(report.event_time, meta.video_start + sec(8));
  EXPECT_GT(report.event_seq, 0u);
}

// VerifyPassesCleanAndCatchesPerturbation and
// BisectPinpointsInjectedPerturbation check offsets and intervals only.
// These pin every field of the same perturbed verify and bisection, so
// that moving the bit flip by one slice or one event fails even where the
// interval stays the same.
TEST(ReplayPin, PerturbedVerifyMismatchIsPinned) {
  const ScenarioSpec scen =
      single_video("fig16", 720, 48, 12, mem::PressureLevel::Normal, 7);
  const Snapshot blob = replay::record_run(scen, {sec(4), std::nullopt});

  const auto report = replay::verify_replay(blob, sec(6));
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.mismatch_index, 2u);
  EXPECT_EQ(report.mismatch_offset, sec(8));
  EXPECT_EQ(report.reached_offset, sec(8));
  EXPECT_EQ(report.expected, 0x5fa352a0c036d1a0ULL);
  EXPECT_EQ(report.actual, 0x43fc2bc1081b3e9eULL);
}

TEST(ReplayPin, BisectDivergenceIsPinned) {
  const ScenarioSpec scen =
      single_video("fig16", 720, 48, 12, mem::PressureLevel::Normal, 7);
  const Snapshot blob = replay::record_run(scen, {sec(4), std::nullopt});

  const auto report = replay::bisect_divergence(blob, sec(6));
  ASSERT_TRUE(report.diverged);
  EXPECT_EQ(report.interval_index, 2u);
  EXPECT_EQ(report.interval_start, sec(4));
  EXPECT_EQ(report.interval_end, sec(8));
  EXPECT_EQ(report.event_time, 8'201'979);
  EXPECT_EQ(report.event_seq, 4778u);
  EXPECT_EQ(report.probes, 3);
  EXPECT_EQ(report.subsystem, "sysact");
}

TEST(Replay, RecordedBlobSurvivesSerializeParse) {
  fault::FaultPlan plan;
  plan.link_outages.push_back({sec(2), sec(1)});
  const ScenarioSpec scen =
      single_video("fig11", 360, 30, 8, mem::PressureLevel::Normal, 3, plan);
  const Snapshot blob = replay::record_run(scen, {sec(4), std::nullopt});

  const Snapshot reparsed = Snapshot::parse(blob.serialize());
  ByteReader r(reparsed.require(replay::kScenTag));
  const ScenarioSpec loaded = scenario::load_scenario(r);
  EXPECT_EQ(loaded.family, scen.family);
  EXPECT_EQ(scenario::video_spec(loaded).height, scenario::video_spec(scen).height);
  EXPECT_EQ(loaded.seed, scen.seed);
  const auto& loaded_plan = scenario::video_spec(loaded).fault_plan;
  ASSERT_EQ(loaded_plan.link_outages.size(), 1u);
  EXPECT_EQ(loaded_plan.link_outages[0].at, sec(2));

  const auto verified = replay::verify_replay(reparsed);
  EXPECT_TRUE(verified.ok) << replay::format_report(verified);
}

// Golden-trace regression: a blob recorded once and committed to the
// repo must keep replaying digest-identical. A failure here means the
// simulation's behavior changed — if intentional, re-record via
// `mvqoe_replay record tests/data/golden_fig16.blob --family=fig16
//  --height=720 --fps=48 --duration=12 --state=moderate --seed=7
//  --interval=4`.
TEST(Replay, GoldenBlobReplaysDigestIdentical) {
  const std::string path = std::string(MVQOE_TEST_DATA_DIR) + "/golden_fig16.blob";
  Snapshot blob;
  try {
    blob = Snapshot::read_file(path);
  } catch (const std::exception& e) {
    FAIL() << "golden blob missing/unreadable: " << e.what();
  }
  const auto report = replay::verify_replay(blob);
  EXPECT_TRUE(report.ok) << replay::format_report(report)
                         << " — simulation behavior drifted from the committed golden trace";
}

}  // namespace
}  // namespace mvqoe::snapshot
