// Differential congestion-control battery (DESIGN.md §17): the fifo
// lane must be byte-identical to the pre-refactor serial link, the four
// controllers must be pairwise distinguishable on identically-seeded
// workloads, and every controller must satisfy run-twice determinism,
// checkpoint-at-T restore identity and save/digest stability under rate
// steps, outages and mid-transfer cancels.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/harness.hpp"
#include "net/link.hpp"
#include "scenario/spec.hpp"
#include "snapshot/bytes.hpp"

namespace mvqoe {
namespace {

using net::Link;
using net::LinkConfig;
using net::NetSpec;
using sim::msec;

std::string link_bytes(const Link& link) {
  snapshot::ByteWriter w;
  link.save(w);
  return std::move(w).take();
}

// ---------- Factory and spec validation --------------------------------------

TEST(NetSpec, FactoryKnowsAllFourControllers) {
  const std::vector<std::string> names = net::cc_names();
  ASSERT_EQ(names, (std::vector<std::string>{"fifo", "cubic", "bbr", "c4"}));
  EXPECT_EQ(net::make_congestion_controller(NetSpec{}), nullptr);  // fifo = no flow engine
  for (const std::string& name : names) {
    if (name == "fifo") continue;
    const auto cc = net::make_congestion_controller(NetSpec{name, {}});
    ASSERT_NE(cc, nullptr) << name;
    EXPECT_EQ(cc->name(), name);
  }
  EXPECT_THROW(net::validate_net_spec(NetSpec{"reno", {}}), std::invalid_argument);
  // Specs arrive from SCEN blobs and checkpoint configs: a key the named
  // controller never reads, or a value that is not > 0, fails by name.
  for (const auto& [spec, key] : std::vector<std::pair<NetSpec, std::string>>{
           {{"cubic", {{"queue_kbb", 8.0}}}, "queue_kbb"},
           {{"fifo", {{"mss", 1200.0}}}, "mss"},
           {{"bbr", {{"c4_delay_target_us", 5000.0}}}, "c4_delay_target_us"},
           {{"c4", {{"mss", -5.0}}}, "mss"},
           {{"cubic", {{"queue_kb", 0.0}}}, "queue_kb"}}) {
    try {
      net::validate_net_spec(spec);
      ADD_FAILURE() << spec.cc << " accepted " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos) << e.what();
    }
  }
  for (const std::string name : {"cubic", "bbr", "c4"}) {
    NetSpec spec{name, {{"mss", 1200.0}, {"queue_kb", 32.0}}};
    if (name == "c4") spec.params.emplace_back("c4_delay_target_us", 5000.0);
    EXPECT_NO_THROW(net::validate_net_spec(spec)) << name;
  }
}

TEST(NetSpec, DefaultSpecIsDefaultAndTunedSpecIsNot) {
  EXPECT_TRUE(NetSpec{}.is_default());
  EXPECT_FALSE((NetSpec{"cubic", {}}).is_default());
  EXPECT_FALSE((NetSpec{"fifo", {{"mss", 1200.0}}}).is_default());
}

// ---------- Fifo lane: byte-identical to the pre-refactor link ---------------

/// Drive one link through the legacy repertoire: serialized transfers,
/// a mid-flight rate step, an outage window, a cancel and a timeout.
/// Returns the completion-order trace.
std::vector<sim::Time> drive_fifo(sim::Engine& engine, Link& link) {
  std::vector<sim::Time> done;
  const auto note = [&](bool) { done.push_back(engine.now()); };
  link.transfer(1'000'000, note);
  link.transfer(2'000'000, note);
  const net::TransferId victim = link.transfer(500'000, note);
  engine.run_until(msec(40));
  link.set_rate_mbps(20.0);
  engine.run_until(msec(120));
  link.set_down(true);
  engine.run_until(msec(300));
  link.set_down(false);
  link.cancel(victim);
  engine.run_until(sim::sec(1));
  link.transfer(250'000, note);
  engine.run();
  return done;
}

TEST(FifoIdentity, DefaultNetSpecIsByteIdenticalToTwoArgLink) {
  sim::Engine legacy_engine;
  Link legacy(legacy_engine, LinkConfig{});  // the pre-refactor signature
  sim::Engine spec_engine;
  Link with_spec(spec_engine, LinkConfig{}, NetSpec{});

  const std::vector<sim::Time> legacy_done = drive_fifo(legacy_engine, legacy);
  const std::vector<sim::Time> spec_done = drive_fifo(spec_engine, with_spec);

  EXPECT_FALSE(legacy.cc_mode());
  EXPECT_FALSE(with_spec.cc_mode());
  EXPECT_EQ(legacy_done, spec_done);
  // Same events, same engine sequence draws, same v1 snapshot bytes.
  EXPECT_EQ(legacy_engine.now(), spec_engine.now());
  EXPECT_EQ(link_bytes(legacy), link_bytes(with_spec));
  EXPECT_EQ(legacy.digest(), with_spec.digest());
}

TEST(FifoIdentity, FifoSectionIsVersionOne) {
  sim::Engine engine;
  Link link(engine, LinkConfig{});
  const std::string bytes = link_bytes(link);
  snapshot::ByteReader r(bytes);
  EXPECT_EQ(r.u32(), 1u);  // pre-refactor section version, unchanged
}

// ---------- Differential: controllers are pairwise distinct ------------------

struct CcTrace {
  std::vector<sim::Time> completions;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t qdelay_samples = 0;
  sim::Time qdelay_max = 0;
};

/// The shared workload every controller runs: three concurrent flows on
/// a 16 Mbps bottleneck with a mid-run rate dip — enough contention that
/// the control law, not the link rate, decides the trace.
CcTrace drive_cc(const std::string& cc) {
  sim::Engine engine;
  LinkConfig config;
  config.rate_mbps = 16.0;
  Link link(engine, config, NetSpec{cc, {}});
  CcTrace trace;
  const auto note = [&](bool) { trace.completions.push_back(engine.now()); };
  link.transfer(1'500'000, note);
  link.transfer(1'000'000, note);
  link.transfer(750'000, note);
  engine.run_until(msec(400));
  link.set_rate_mbps(4.0);
  engine.run_until(msec(900));
  link.set_rate_mbps(16.0);
  engine.run();
  trace.bytes_delivered = link.bytes_delivered();
  trace.qdelay_samples = link.queue_delay().samples;
  trace.qdelay_max = link.queue_delay().max;
  return trace;
}

TEST(Differential, FourControllersProducePairwiseDistinctTraces) {
  std::vector<CcTrace> traces;
  for (const std::string& cc : net::cc_names()) {
    CcTrace trace = drive_cc(cc);
    ASSERT_EQ(trace.completions.size(), 3u) << cc << ": every flow must complete";
    EXPECT_EQ(trace.bytes_delivered, 3'250'000u) << cc;
    traces.push_back(std::move(trace));
  }
  const auto& names = net::cc_names();
  for (std::size_t a = 0; a < traces.size(); ++a) {
    for (std::size_t b = a + 1; b < traces.size(); ++b) {
      EXPECT_NE(traces[a].completions, traces[b].completions)
          << names[a] << " and " << names[b] << " are indistinguishable on the same seed";
    }
  }
  // Fifo serializes — no packet ever queues behind another flow's.
  EXPECT_EQ(traces[0].qdelay_samples, 0u);
  for (std::size_t i = 1; i < traces.size(); ++i) {
    EXPECT_GT(traces[i].qdelay_samples, 0u) << names[i];
  }
}

TEST(Differential, ConcurrentFlowsShareTheBottleneck) {
  // Under fifo the second transfer only starts after the first finishes;
  // under any real controller both progress at once.
  sim::Engine engine;
  Link link(engine, LinkConfig{}, NetSpec{"cubic", {}});
  link.transfer(4'000'000, nullptr);
  link.transfer(4'000'000, nullptr);
  engine.run_until(msec(200));
  const auto stats = link.flow_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GT(stats[0].delivered_bytes, 0u);
  EXPECT_GT(stats[1].delivered_bytes, 0u);
  engine.run();
  EXPECT_EQ(link.bytes_delivered(), 8'000'000u);
}

// ---------- Per-controller determinism and serialization ---------------------

class PerController : public ::testing::TestWithParam<std::string> {};

/// The churn repertoire for save/digest tests: rate steps, an outage,
/// a mid-transfer cancel, random loss while flows are in flight.
struct ChurnRun {
  std::string mid_bytes;
  std::uint64_t mid_digest = 0;
  std::string end_bytes;
  std::uint64_t end_digest = 0;
  std::vector<sim::Time> completions;
  std::uint64_t retired = 0;
  std::uint64_t delivered = 0;
};

ChurnRun drive_churn(const std::string& cc) {
  sim::Engine engine;
  LinkConfig config;
  config.rate_mbps = 16.0;
  Link link(engine, config, NetSpec{cc, {}});
  ChurnRun run;
  const auto note = [&](bool) { run.completions.push_back(engine.now()); };
  link.transfer(2'000'000, note);
  const net::TransferId victim = link.transfer(1'000'000, note);
  engine.run_until(msec(100));
  link.set_rate_mbps(6.0);
  if (link.cc_mode()) link.set_loss_rate(0.05);
  engine.run_until(msec(250));
  link.set_down(true);
  engine.run_until(msec(450));
  link.set_down(false);
  link.cancel(victim);
  engine.run_until(msec(600));
  if (link.cc_mode()) link.set_loss_rate(0.0);
  run.mid_bytes = link_bytes(link);
  run.mid_digest = link.digest();
  link.transfer(300'000, note);
  engine.run();
  run.end_bytes = link_bytes(link);
  run.end_digest = link.digest();
  run.retired = link.cc_mode() ? link.retired_delivered() : 0;
  run.delivered = link.bytes_delivered();
  return run;
}

TEST_P(PerController, RunTwiceIsByteIdenticalUnderChurn) {
  const ChurnRun first = drive_churn(GetParam());
  const ChurnRun second = drive_churn(GetParam());
  EXPECT_EQ(first.completions, second.completions);
  EXPECT_EQ(first.mid_bytes, second.mid_bytes);
  EXPECT_EQ(first.mid_digest, second.mid_digest);
  EXPECT_EQ(first.end_bytes, second.end_bytes);
  EXPECT_EQ(first.end_digest, second.end_digest);
  EXPECT_NE(first.end_digest, 0u);
  // Bytes that entered a flow are accounted for end to end: everything
  // still alive was retired by completion/cancel before the run ended.
  if (GetParam() != "fifo") {
    EXPECT_EQ(first.retired, first.delivered);
  }
}

TEST_P(PerController, QueueStaysWithinDroptailBound) {
  sim::Engine engine;
  LinkConfig config;
  config.rate_mbps = 2.0;  // slow bottleneck: real queue pressure
  Link link(engine, config, NetSpec{GetParam(), {}});
  if (!link.cc_mode()) return;  // fifo has no packet queue
  for (int i = 0; i < 4; ++i) link.transfer(500'000, nullptr);
  for (int step = 0; step < 40; ++step) {
    engine.run_until(engine.now() + msec(50));
    EXPECT_LE(link.backlog_bytes(), link.queue_capacity_bytes());
    // Conservation at every sample point, not just at the end.
    std::uint64_t live = 0;
    for (const auto& fs : link.flow_stats()) live += fs.delivered_bytes;
    EXPECT_EQ(link.retired_delivered() + live, link.bytes_delivered());
  }
  engine.run();
  EXPECT_EQ(link.bytes_delivered(), 2'000'000u);
}

TEST_P(PerController, CheckpointRestoreIdentityThroughHarness) {
  // check_scenario's meta-determinism pass re-runs the world and
  // restores from a checkpoint at a mid-run slice; both must land on
  // the primary run's digest trail — now with the CC flow engine and a
  // competing cross-traffic workload in the loop.
  scenario::ScenarioSpec scen =
      scenario::single_video("fig16", 360, 30, 4, mem::PressureLevel::Moderate, 11);
  scen.net.cc = GetParam();
  if (GetParam() != "fifo") {
    scenario::CrossTrafficWorkloadSpec cross;
    cross.bulk_flows = 1;
    cross.onoff_flows = 1;
    cross.seed = 13;
    scen.workloads.emplace_back(cross);
  }
  const check::RunReport report = check::check_scenario(scen);
  ASSERT_TRUE(report.ok) << GetParam() << ": " << report.violation->oracle << ": "
                         << report.violation->detail;
  EXPECT_GT(report.slices, 0);
  EXPECT_NE(report.final_digest, 0u);
}

INSTANTIATE_TEST_SUITE_P(Controllers, PerController, ::testing::ValuesIn(net::cc_names()));

TEST(Differential, ControllersDivergeInsideTheScenarioToo) {
  // The same scenario seed under different controllers must reach
  // different world digests — the axis is real, not cosmetic.
  std::set<std::uint64_t> digests;
  for (const std::string& cc : net::cc_names()) {
    scenario::ScenarioSpec scen =
        scenario::single_video("fig16", 360, 30, 4, mem::PressureLevel::Moderate, 11);
    scen.net.cc = cc;
    check::CheckOptions opts;
    opts.meta_determinism = false;
    const check::RunReport report = check::check_scenario(scen, opts);
    ASSERT_TRUE(report.ok) << cc;
    digests.insert(report.final_digest);
  }
  EXPECT_EQ(digests.size(), net::cc_names().size());
}

// ---------- Loss signal ------------------------------------------------------

TEST(LossSignal, RandomLossDropsPacketsAndStillCompletes) {
  sim::Engine engine;
  Link link(engine, LinkConfig{}, NetSpec{"cubic", {}});
  bool ok = false;
  link.transfer(2'000'000, [&](bool completed) { ok = completed; });
  link.set_loss_rate(0.2);
  engine.run();
  EXPECT_TRUE(ok);  // retransmits recover every dropped packet
  EXPECT_EQ(link.bytes_delivered(), 2'000'000u);
  EXPECT_GT(link.packets_dropped(), 0u);
}

TEST(LossSignal, LossFreeRunIsUnaffectedByLossRng) {
  // With loss_rate == 0 the loss RNG is never drawn, so a run that
  // toggles nothing is bit-identical to one that never could have.
  const ChurnRun a = drive_churn("bbr");
  const ChurnRun b = drive_churn("bbr");
  EXPECT_EQ(a.end_bytes, b.end_bytes);
}

// ---------- Scenario encoding: SCEN v4 ---------------------------------------

TEST(ScenarioEncoding, DefaultNetStillWritesVersionTwo) {
  const scenario::ScenarioSpec scen =
      scenario::single_video("fig16", 360, 30, 4, mem::PressureLevel::Normal, 7);
  snapshot::ByteWriter w;
  scenario::save_scenario(w, scen);
  const std::string bytes = std::move(w).take();
  snapshot::ByteReader r(bytes);
  EXPECT_EQ(r.u32(), 2u);  // historical baseline encoding, untouched
}

TEST(ScenarioEncoding, NetAndCrossTrafficRoundTripAsVersionFour) {
  scenario::ScenarioSpec scen =
      scenario::single_video("fig16", 480, 60, 5, mem::PressureLevel::Low, 21);
  scen.net.cc = "c4";
  scen.net.params.emplace_back("c4_delay_target_us", 15000.0);
  scenario::CrossTrafficWorkloadSpec cross;
  cross.label = "peer";
  cross.bulk_flows = 2;
  cross.onoff_flows = 1;
  cross.on_s = 3;
  cross.off_s = 1;
  cross.chunk_bytes = 512 * 1024;
  cross.seed = 99;
  scen.workloads.emplace_back(cross);

  snapshot::ByteWriter w;
  scenario::save_scenario(w, scen);
  const std::string bytes = std::move(w).take();
  {
    snapshot::ByteReader version_probe(bytes);
    EXPECT_EQ(version_probe.u32(), 4u);
  }
  snapshot::ByteReader r(bytes);
  const scenario::ScenarioSpec loaded = scenario::load_scenario(r);
  EXPECT_EQ(loaded.net.cc, "c4");
  ASSERT_EQ(loaded.net.params.size(), 1u);
  EXPECT_EQ(loaded.net.params[0].first, "c4_delay_target_us");
  EXPECT_EQ(loaded.net.params[0].second, 15000.0);
  bool found = false;
  for (const auto& workload : loaded.workloads) {
    if (const auto* c = std::get_if<scenario::CrossTrafficWorkloadSpec>(&workload)) {
      found = true;
      EXPECT_EQ(c->label, "peer");
      EXPECT_EQ(c->bulk_flows, 2);
      EXPECT_EQ(c->onoff_flows, 1);
      EXPECT_EQ(c->on_s, 3);
      EXPECT_EQ(c->off_s, 1);
      EXPECT_EQ(c->chunk_bytes, 512u * 1024u);
      EXPECT_EQ(c->seed, 99u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ScenarioEncoding, UnknownControllerIsRejectedAtLoad) {
  scenario::ScenarioSpec scen =
      scenario::single_video("fig16", 360, 30, 4, mem::PressureLevel::Normal, 7);
  scen.net.cc = "cubic";
  snapshot::ByteWriter w;
  scenario::save_scenario(w, scen);
  std::string bytes = std::move(w).take();
  // Corrupt the controller name in place ("cubic" -> "cubiq").
  const std::size_t pos = bytes.find("cubic");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos + 4] = 'q';
  snapshot::ByteReader r(bytes);
  EXPECT_THROW(scenario::load_scenario(r), std::exception);
}

// ---------- Fuzz lane --------------------------------------------------------

TEST(Fuzz, CcAxisRunsCleanUnderFullSuite) {
  check::FuzzOptions opts;
  opts.seed = 77;
  opts.runs = 6;
  opts.generator.max_videos = 2;
  opts.generator.max_duration_s = 4;
  opts.generator.ccs = {"fifo", "cubic", "bbr", "c4"};
  const check::FuzzSummary summary = check::run_fuzz(opts);
  EXPECT_EQ(summary.failed, 0)
      << (summary.failures.empty()
              ? ""
              : summary.failures.front().violation.oracle + ": " +
                    summary.failures.front().violation.detail);
  EXPECT_NE(summary.digest, 0u);
}

TEST(Fuzz, CcAxisDigestDiffersFromFifoOnlyCampaign) {
  check::FuzzOptions base;
  base.seed = 77;
  base.runs = 4;
  base.generator.max_videos = 1;
  base.generator.max_duration_s = 3;
  base.check.meta_determinism = false;
  check::FuzzOptions with_ccs = base;
  with_ccs.generator.ccs = {"cubic", "bbr", "c4"};
  const check::FuzzSummary plain = check::run_fuzz(base);
  const check::FuzzSummary ccs = check::run_fuzz(with_ccs);
  EXPECT_EQ(plain.failed, 0);
  EXPECT_EQ(ccs.failed, 0);
  EXPECT_NE(plain.digest, ccs.digest);
}

}  // namespace
}  // namespace mvqoe
