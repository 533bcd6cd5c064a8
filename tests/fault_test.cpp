// FaultInjector unit tests: scripted windows apply and restore, kills
// route through the resolver, and the Gilbert-Elliott model replays
// byte-identically per seed.
#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "fault/fault_injector.hpp"
#include "scenario/driver.hpp"
#include "scenario/spec.hpp"

namespace mvqoe::fault {
namespace {

using sim::msec;
using sim::sec;

TEST(FaultInjector, ScriptedOutageTakesLinkDownAndRestores) {
  sim::Engine engine;
  net::Link link(engine, net::LinkConfig{});
  FaultPlan plan;
  plan.link_outages.push_back({sec(1), sec(2)});
  FaultTargets targets;
  targets.engine = &engine;
  targets.link = &link;
  FaultInjector injector(targets, plan);
  injector.arm(0);

  engine.run_until(msec(1500));
  EXPECT_TRUE(link.down());
  EXPECT_EQ(injector.open_outages(), 1);
  engine.run();
  EXPECT_FALSE(link.down());
  EXPECT_EQ(injector.open_outages(), 0);

  ASSERT_EQ(injector.log().size(), 2u);
  EXPECT_EQ(injector.log()[0].kind, trace::InstantKind::LinkDown);
  EXPECT_EQ(injector.log()[0].at, sec(1));
  EXPECT_EQ(injector.log()[1].kind, trace::InstantKind::LinkUp);
  EXPECT_EQ(injector.log()[1].at, sec(3));
}

TEST(FaultInjector, PlanTimesAreRelativeToArmBase) {
  sim::Engine engine;
  net::Link link(engine, net::LinkConfig{});
  FaultPlan plan;
  plan.link_rate_steps.push_back({sec(2), 8.0});
  FaultTargets targets;
  targets.engine = &engine;
  targets.link = &link;
  FaultInjector injector(targets, plan);
  engine.run_until(sec(10));
  injector.arm(engine.now());  // "at 2 s" means 2 s after arming
  engine.run();
  ASSERT_EQ(injector.log().size(), 1u);
  EXPECT_EQ(injector.log()[0].at, sec(12));
  EXPECT_DOUBLE_EQ(link.config().rate_mbps, 8.0);
  EXPECT_EQ(injector.log()[0].value, 8000);  // kbps
}

TEST(FaultInjector, OverlappingOutagesRestoreOnLastClose) {
  sim::Engine engine;
  net::Link link(engine, net::LinkConfig{});
  FaultPlan plan;
  plan.link_outages.push_back({sec(1), sec(4)});  // [1, 5]
  plan.link_outages.push_back({sec(2), sec(1)});  // [2, 3]
  FaultTargets targets;
  targets.engine = &engine;
  targets.link = &link;
  FaultInjector injector(targets, plan);
  injector.arm(0);
  engine.run_until(msec(2500));
  EXPECT_EQ(injector.open_outages(), 2);
  engine.run_until(msec(3500));
  EXPECT_TRUE(link.down());  // inner window closed, outer still open
  engine.run();
  EXPECT_FALSE(link.down());
  EXPECT_EQ(link.counters().outages, 1u);  // one physical down transition
}

TEST(FaultInjector, DisarmRestoresNominalConditionsMidWindow) {
  core::Testbed tb(core::nexus5(), 5);
  tb.boot();
  FaultPlan plan;
  plan.link_outages.push_back({sec(1), sec(100)});
  plan.link_rate_steps.push_back({sec(1), 5.0});
  plan.storage_degradations.push_back({sec(1), sec(100), 6.0, 0.5});
  plan.thermal_windows.push_back({sec(1), sec(100), 0.5});
  FaultTargets targets;
  targets.engine = &tb.engine;
  targets.link = &tb.link;
  targets.storage = &tb.storage;
  targets.scheduler = &tb.scheduler;
  targets.memory = &tb.memory;
  targets.tracer = &tb.tracer;
  const double nominal_rate = tb.link.config().rate_mbps;
  FaultInjector injector(targets, plan);
  injector.arm(tb.engine.now());
  tb.engine.run_until(tb.engine.now() + sec(2));

  EXPECT_TRUE(tb.link.down());
  EXPECT_DOUBLE_EQ(tb.scheduler.speed_scale(), 0.5);
  EXPECT_DOUBLE_EQ(tb.storage.latency_multiplier(), 6.0);
  EXPECT_DOUBLE_EQ(tb.storage.error_rate(), 0.5);

  injector.disarm();
  EXPECT_FALSE(injector.armed());
  EXPECT_FALSE(tb.link.down());
  EXPECT_DOUBLE_EQ(tb.scheduler.speed_scale(), 1.0);
  EXPECT_DOUBLE_EQ(tb.storage.latency_multiplier(), 1.0);
  EXPECT_DOUBLE_EQ(tb.storage.error_rate(), 0.0);
  EXPECT_EQ(injector.open_outages(), 0);
  EXPECT_EQ(injector.open_storage_windows(), 0);
  EXPECT_EQ(injector.open_thermal_windows(), 0);
  // The scripted rate step applied before disarm; disarm does not undo
  // scripted (non-window) steps, and pending far-future ends are gone.
  EXPECT_DOUBLE_EQ(tb.link.config().rate_mbps, 5.0);
  (void)nominal_rate;
  tb.engine.run_until(tb.engine.now() + sec(200));  // nothing left to fire
  EXPECT_FALSE(tb.link.down());
}

TEST(FaultInjector, KillResolvesVictimThroughResolverAtFireTime) {
  core::Testbed tb(core::nexus5(), 5);
  tb.boot();
  const auto pid = tb.am.next_pid();
  bool killed = false;
  tb.memory.register_process(pid, "victim", mem::OomAdj::kForeground,
                             [&killed] { killed = true; });
  FaultPlan plan;
  plan.kills.push_back({sec(1), 0});  // pid 0 = use the resolver
  FaultTargets targets;
  targets.engine = &tb.engine;
  targets.memory = &tb.memory;
  FaultInjector injector(targets, plan);
  injector.set_kill_target([pid] { return pid; });
  injector.arm(tb.engine.now());
  tb.engine.run_until(tb.engine.now() + sec(2));

  EXPECT_TRUE(killed);
  EXPECT_EQ(injector.kills_injected(), 1u);
  EXPECT_FALSE(tb.memory.registry().alive(pid));
  ASSERT_EQ(injector.log().size(), 1u);
  EXPECT_EQ(injector.log()[0].kind, trace::InstantKind::FaultKill);
  EXPECT_EQ(injector.log()[0].value, static_cast<std::int64_t>(pid));
}

TEST(FaultInjector, KillSkippedWhenResolverReturnsNoVictim) {
  core::Testbed tb(core::nexus5(), 5);
  tb.boot();
  FaultPlan plan;
  plan.kills.push_back({sec(1), 0});
  FaultTargets targets;
  targets.engine = &tb.engine;
  targets.memory = &tb.memory;
  FaultInjector injector(targets, plan);
  injector.set_kill_target([] { return mem::ProcessId{0}; });
  injector.arm(tb.engine.now());
  tb.engine.run_until(tb.engine.now() + sec(2));
  EXPECT_EQ(injector.kills_injected(), 0u);
  EXPECT_EQ(injector.skipped_actions(), 1u);
}

TEST(FaultInjector, ActionsAgainstAbsentTargetsAreSkippedNotFatal) {
  sim::Engine engine;
  FaultPlan plan;
  plan.link_outages.push_back({sec(1), sec(1)});
  plan.link_rate_steps.push_back({sec(1), 8.0});
  plan.storage_degradations.push_back({sec(1), sec(1)});
  plan.thermal_windows.push_back({sec(1), sec(1)});
  plan.kills.push_back({sec(1), 42});
  FaultTargets targets;
  targets.engine = &engine;  // nothing else wired up
  FaultInjector injector(targets, plan);
  injector.arm(0);
  engine.run();
  EXPECT_EQ(injector.kills_injected(), 0u);
  EXPECT_EQ(injector.skipped_actions(), 5u);
  EXPECT_TRUE(injector.log().empty());
}

TEST(FaultInjector, GilbertElliottReplaysByteIdenticallyPerSeed) {
  auto run_model = [](std::uint64_t seed) {
    sim::Engine engine;
    net::Link link(engine, net::LinkConfig{});
    FaultPlan plan;
    plan.seed = seed;
    plan.gilbert_elliott.enabled = true;
    plan.gilbert_elliott.mean_good = sec(5);
    plan.gilbert_elliott.mean_bad = sec(1);
    FaultTargets targets;
    targets.engine = &engine;
    targets.link = &link;
    FaultInjector injector(targets, plan);
    injector.arm(0);
    engine.run_until(sim::minutes(5));
    injector.disarm();
    return injector.log();
  };
  const auto a = run_model(17);
  const auto b = run_model(17);
  const auto c = run_model(18);
  ASSERT_GT(a.size(), 10u);  // the model actually transitioned
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].value, b[i].value);
  }
  // A different seed produces a different transition sequence.
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at != c[i].at || a[i].kind != c[i].kind;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, GilbertElliottBadPeriodsMixOutagesAndRateCollapses) {
  sim::Engine engine;
  net::Link link(engine, net::LinkConfig{});
  FaultPlan plan;
  plan.seed = 23;
  plan.gilbert_elliott.enabled = true;
  plan.gilbert_elliott.mean_good = sec(3);
  plan.gilbert_elliott.mean_bad = sec(1);
  plan.gilbert_elliott.bad_outage_probability = 0.5;
  FaultTargets targets;
  targets.engine = &engine;
  targets.link = &link;
  FaultInjector injector(targets, plan);
  injector.arm(0);
  engine.run_until(sim::minutes(10));
  injector.disarm();
  int outages = 0;
  int rate_drops = 0;
  for (const auto& rec : injector.log()) {
    if (rec.kind == trace::InstantKind::LinkDown) ++outages;
    if (rec.kind == trace::InstantKind::LinkRateChange && rec.value < 80'000) ++rate_drops;
  }
  EXPECT_GT(outages, 0);
  EXPECT_GT(rate_drops, 0);
  // Whatever the final state, disarm restored the link.
  EXPECT_FALSE(link.down());
  EXPECT_DOUBLE_EQ(link.config().rate_mbps, 80.0);
}

// Checkpoint-under-fault: a snapshot taken mid-outage must restore the
// remaining fault schedule exactly — the close events of the open
// windows and every not-yet-fired action, at the same (at, id) pairs.
// "Restore" is replay (DESIGN.md §10): a fresh driver advanced to the
// same offset must carry an identical injector schedule and digest.
TEST(FaultInjector, CheckpointMidOutageRestoresRemainingSchedule) {
  FaultPlan plan;
  plan.link_outages.push_back({sec(4), sec(4)});           // open [4, 8]
  plan.link_outages.push_back({sec(10), sec(2)});          // entirely ahead
  plan.storage_degradations.push_back({sec(5), sec(6), 4.0, 0.0});  // open [5, 11]
  const scenario::ScenarioSpec scen =
      scenario::single_video("fig16", 480, 30, 16, mem::PressureLevel::Normal, 11, plan);

  scenario::ScenarioDriver a(scen);
  a.start();
  ASSERT_TRUE(a.advance_to(sec(6)));  // inside both open windows
  fault::FaultInjector* inj_a = a.injector();
  ASSERT_NE(inj_a, nullptr);
  EXPECT_EQ(inj_a->open_outages(), 1);
  EXPECT_EQ(inj_a->open_storage_windows(), 1);
  const auto sched_a = inj_a->pending_schedule();
  // Still pending: outage-1 close (+8), outage-2 open (+10) and close
  // (+12), storage-window close (+11).
  ASSERT_EQ(sched_a.size(), 4u);
  const sim::Time video_start = a.video_start();
  EXPECT_EQ(sched_a.front().at, video_start + sec(8));
  EXPECT_EQ(sched_a.back().at, video_start + sec(12));

  scenario::ScenarioDriver b(scen);
  b.start();
  ASSERT_TRUE(b.advance_to(sec(6)));
  fault::FaultInjector* inj_b = b.injector();
  ASSERT_NE(inj_b, nullptr);
  const auto sched_b = inj_b->pending_schedule();
  ASSERT_EQ(sched_b.size(), sched_a.size());
  for (std::size_t i = 0; i < sched_a.size(); ++i) {
    EXPECT_EQ(sched_a[i].at, sched_b[i].at) << "entry " << i;
    EXPECT_EQ(sched_a[i].id, sched_b[i].id) << "entry " << i;
  }
  EXPECT_EQ(inj_a->digest(), inj_b->digest());
  EXPECT_EQ(a.state_digest(), b.state_digest());

  // Running on from the checkpoint closes the windows identically: the
  // replayed world is indistinguishable from the original to the end.
  while (!a.done()) a.advance_to(a.offset() + sec(2));
  while (!b.done()) b.advance_to(b.offset() + sec(2));
  EXPECT_EQ(inj_a->open_outages(), 0);
  EXPECT_EQ(inj_a->log().size(), inj_b->log().size());
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

}  // namespace
}  // namespace mvqoe::fault
