// Differential tests for the pluggable reclaim/kill policy layer
// (DESIGN.md §16): the factory registry, the KillCharter contract the
// oracles replay against, every policy's batch plan from the one
// planner, scenario/campaign serialization of the policy
// axis, and — the load-bearing part — that the four registered policies
// are deterministic individually and pairwise distinct on a reference
// scenario, while the baseline stays byte-identical to the pre-policy
// encoder (SCEN v2, no config-tail bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/fuzz_campaign.hpp"
#include "campaign/policy_campaign.hpp"
#include "campaign/sweep_campaign.hpp"
#include "closure.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/spec.hpp"
#include "mem/policy.hpp"
#include "runner/video_batch.hpp"
#include "sched/scheduler.hpp"
#include "scenario/driver.hpp"
#include "scenario/spec.hpp"
#include "snapshot/blob.hpp"
#include "snapshot/bytes.hpp"
#include "snapshot/digest.hpp"
#include "snapshot/replay/record.hpp"
#include "stats/rng.hpp"

namespace mvqoe {
namespace {

// --- registry + factory ------------------------------------------------------

TEST(PolicyFactory, RegistersFourPoliciesInFactoryOrder) {
  const std::vector<std::string> expected = {"baseline", "swam", "ariadne", "partitioned"};
  EXPECT_EQ(mem::mem_policy_names(), expected);
  const mem::MemoryConfig config;
  for (const std::string& name : expected) {
    const auto policy = mem::make_mem_policy(mem::MemPolicySpec{name, {}}, config);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
    EXPECT_EQ(policy->charter().policy_name, name);
  }
}

TEST(PolicyFactory, RejectsUnknownNamesAndForeignParameters) {
  const mem::MemoryConfig config;
  EXPECT_THROW(mem::make_mem_policy({"lru2q", {}}, config), std::invalid_argument);
  EXPECT_THROW(mem::validate_policy_spec({"lru2q", {}}), std::invalid_argument);
  // Each policy only accepts its own declared parameters.
  EXPECT_THROW(mem::make_mem_policy({"baseline", {{"reserve_mb", 10.0}}}, config),
               std::invalid_argument);
  EXPECT_THROW(mem::make_mem_policy({"swam", {{"hot_cut_refus", 1.0}}}, config),
               std::invalid_argument);
  // Out-of-range values are rejected at construction.
  EXPECT_THROW(mem::make_mem_policy({"swam", {{"swap_full_fraction", 1.5}}}, config),
               std::invalid_argument);
  EXPECT_THROW(mem::make_mem_policy({"swam", {{"kill_cooldown_ms", -1.0}}}, config),
               std::invalid_argument);
  EXPECT_THROW(mem::make_mem_policy({"ariadne", {{"cold_ratio", 0.5}}}, config),
               std::invalid_argument);
  EXPECT_THROW(mem::make_mem_policy({"partitioned", {{"reserve_mb", -2.0}}}, config),
               std::invalid_argument);
  // Specs arrive as bytes (SCEN sections, checkpoint configs): a value
  // that is not finite, a key given twice, or a value whose integer
  // conversion overflows fails by name instead of running clamped.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  using Case = std::tuple<mem::MemPolicySpec, std::string, std::string>;
  for (const auto& [spec, key, why] : std::vector<Case>{
           {{"swam", {{"swap_full_fraction", nan}}}, "swap_full_fraction", "finite"},
           {{"swam", {{"kill_cooldown_ms", nan}}}, "kill_cooldown_ms", "finite"},
           {{"ariadne", {{"cold_ratio", nan}}}, "cold_ratio", "finite"},
           {{"ariadne", {{"hot_cut_refus", inf}}}, "hot_cut_refus", "finite"},
           {{"partitioned", {{"reserve_mb", inf}}}, "reserve_mb", "finite"},
           {{"swam", {{"kill_cooldown_ms", 10.0}, {"kill_cooldown_ms", 20.0}}},
            "kill_cooldown_ms",
            "twice"},
           {{"swam", {{"kill_cooldown_ms", 1e300}}}, "kill_cooldown_ms", "too large"},
           {{"partitioned", {{"reserve_mb", 1e300}}}, "reserve_mb", "too large"}}) {
    try {
      (void)mem::make_mem_policy(spec, config);
      ADD_FAILURE() << spec.name << " accepted " << key;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
      EXPECT_NE(what.find(why), std::string::npos) << what;
    }
  }
  // The largest values whose conversion fits still load: ms -> µs and
  // MB -> bytes stay below 2^63.
  EXPECT_EQ(mem::kill_charter_for({"swam", {{"kill_cooldown_ms", 9.2e15}}}, config).kill_cooldown,
            sim::msec(9'200'000'000'000'000));
  EXPECT_EQ(mem::kill_charter_for({"partitioned", {{"reserve_mb", 8.7e12}}}, config).reserve_pages,
            mem::pages_from_mb(8'700'000'000'000));
}

// --- the charter contract ----------------------------------------------------

// A default-constructed KillCharter IS the baseline on the default
// MemoryConfig: the observe layer hands the oracle whatever charter the
// world runs, and this pin keeps the two default surfaces from drifting
// apart silently.
TEST(KillCharter, DefaultCharterMatchesDefaultMemoryConfig) {
  const mem::MemoryConfig config;
  const mem::KillCharter charter = mem::kill_charter_for({"baseline", {}}, config);
  const mem::KillCharter defaults;
  EXPECT_EQ(charter.kill_threshold, config.lmkd_kill_threshold);
  EXPECT_EQ(charter.foreground_threshold, config.lmkd_foreground_threshold);
  EXPECT_EQ(charter.background_adj_floor, config.lmkd_background_adj_floor);
  EXPECT_EQ(charter.minfree_cached, config.minfree_cached);
  EXPECT_EQ(charter.minfree_service, config.minfree_service);
  EXPECT_EQ(charter.minfree_perceptible, config.minfree_perceptible);
  EXPECT_EQ(charter.minfree_foreground, config.minfree_foreground);
  EXPECT_EQ(charter.kill_threshold, defaults.kill_threshold);
  EXPECT_EQ(charter.foreground_threshold, defaults.foreground_threshold);
  EXPECT_EQ(charter.background_adj_floor, defaults.background_adj_floor);
  EXPECT_EQ(charter.minfree_cached, defaults.minfree_cached);
  EXPECT_EQ(charter.minfree_service, defaults.minfree_service);
  EXPECT_EQ(charter.minfree_perceptible, defaults.minfree_perceptible);
  EXPECT_EQ(charter.minfree_foreground, defaults.minfree_foreground);
  EXPECT_EQ(charter.kill_cooldown, defaults.kill_cooldown);
  EXPECT_EQ(charter.victim_rule, mem::KillCharter::VictimRule::HighestAdj);
  EXPECT_EQ(charter.reserve_pages, 0);
  EXPECT_TRUE(charter.swap_aware_escalation);
  EXPECT_EQ(charter.swap_full_kill_fraction, 1.0);
}

TEST(KillCharter, ReplayKillFloorCoversTheBaselineBands) {
  const mem::KillCharter charter;
  const mem::Pages plenty = mem::pages_from_mb(200);
  const mem::Pages zcap = mem::pages_from_mb(450);
  // Quiet world: no band demands a kill.
  EXPECT_EQ(mem::replay_kill_floor(charter, 30.0, plenty, 0, zcap), mem::kNoKillFloor);
  // Background band: 60 < P < 95.
  EXPECT_EQ(mem::replay_kill_floor(charter, 70.0, plenty, 0, zcap), mem::OomAdj::kService);
  // Critical P with swap still plentiful stays on the background floor.
  EXPECT_EQ(mem::replay_kill_floor(charter, 96.0, plenty, 0, zcap), mem::OomAdj::kService);
  // Critical P with swap nearly exhausted reaches the foreground.
  EXPECT_EQ(mem::replay_kill_floor(charter, 96.0, plenty, zcap, zcap), mem::OomAdj::kForeground);
  // minfree ladder, top to bottom.
  EXPECT_EQ(mem::replay_kill_floor(charter, 0.0, mem::pages_from_mb(40), 0, zcap),
            mem::OomAdj::kCached);
  EXPECT_EQ(mem::replay_kill_floor(charter, 0.0, mem::pages_from_mb(25), 0, zcap),
            mem::OomAdj::kService);
  EXPECT_EQ(mem::replay_kill_floor(charter, 0.0, mem::pages_from_mb(15), 0, zcap),
            mem::OomAdj::kPerceptible);
  EXPECT_EQ(mem::replay_kill_floor(charter, 0.0, mem::pages_from_mb(10), 0, zcap),
            mem::OomAdj::kForeground);
}

TEST(KillCharter, SwamPublishesJointSwapKillRules) {
  const mem::MemoryConfig config;
  const mem::KillCharter charter = mem::kill_charter_for({"swam", {}}, config);
  EXPECT_EQ(charter.victim_rule, mem::KillCharter::VictimRule::FloorOnly);
  EXPECT_EQ(charter.swap_full_kill_fraction, 0.85);
  EXPECT_EQ(charter.kill_cooldown, sim::msec(250));
  // A nearly-full zRAM store demands background kills at zero pressure —
  // the joint swap/kill decision the baseline never makes.
  const mem::Pages plenty = mem::pages_from_mb(200);
  const mem::Pages zcap = config.zram_capacity;
  const mem::Pages nearly_full = static_cast<mem::Pages>(0.9 * static_cast<double>(zcap));
  EXPECT_EQ(mem::replay_kill_floor(charter, 0.0, plenty, nearly_full, zcap),
            charter.background_adj_floor);
  const mem::KillCharter baseline;
  EXPECT_EQ(mem::replay_kill_floor(baseline, 0.0, plenty, nearly_full, zcap), mem::kNoKillFloor);
  // The fraction is tunable through the spec params.
  const mem::KillCharter tuned =
      mem::kill_charter_for({"swam", {{"swap_full_fraction", 0.5}}}, config);
  EXPECT_EQ(tuned.swap_full_kill_fraction, 0.5);
}

TEST(KillCharter, PartitionedReserveFiresBackgroundLevelsEarly) {
  const mem::MemoryConfig config;
  const mem::KillCharter charter = mem::kill_charter_for({"partitioned", {}}, config);
  EXPECT_EQ(charter.reserve_pages, config.minfree_perceptible);
  const mem::Pages zcap = config.zram_capacity;
  // Available memory the baseline ladder considers safe trips the
  // reserved ladder: the carve-out is already spoken for.
  const mem::Pages above_cached = config.minfree_cached + charter.reserve_pages / 2;
  const mem::KillCharter baseline;
  EXPECT_EQ(mem::replay_kill_floor(baseline, 0.0, above_cached, 0, zcap), mem::kNoKillFloor);
  EXPECT_EQ(mem::replay_kill_floor(charter, 0.0, above_cached, 0, zcap), mem::OomAdj::kCached);
  // The bottom (save-the-foreground) level reads the raw number: a
  // reserve makes background kills earlier, never foreground kills.
  const mem::Pages scraping = config.minfree_foreground + charter.reserve_pages / 2;
  EXPECT_LT(mem::replay_kill_floor(charter, 0.0, scraping, 0, zcap), mem::OomAdj::kService);
  EXPECT_GT(mem::replay_kill_floor(charter, 0.0, scraping, 0, zcap), mem::OomAdj::kForeground);
  // The reserve is tunable; 0 restores Android's ladder.
  const mem::KillCharter flat = mem::kill_charter_for({"partitioned", {{"reserve_mb", 0.0}}},
                                                      config);
  EXPECT_EQ(flat.reserve_pages, 0);
  EXPECT_EQ(mem::replay_kill_floor(flat, 0.0, above_cached, 0, zcap), mem::kNoKillFloor);
}

// --- the batch planner -------------------------------------------------------

// One plan rendered whole: "scanned | file drops pid:pages | compressions
// pid:pages/tier | writeback | cpu_refus bits".
std::string render_plan(const mem::ReclaimPlan& plan) {
  std::ostringstream out;
  out << plan.scanned << " |";
  for (const auto& take : plan.file_drops) out << ' ' << take.process->pid << ':' << take.pages;
  out << " |";
  for (const auto& take : plan.compress) {
    out << ' ' << take.process->pid << ':' << take.pages << '/' << take.tier;
  }
  out << " | " << plan.writeback << " | " << std::hex
      << std::bit_cast<std::uint64_t>(plan.cpu_refus);
  return out.str();
}

// Pins every policy's plan for one calm and one desperate batch over a
// hand-built registry: one process per oom_adj band, each with hot pages
// and a file working set, plus an unevictable pressure app and dirty
// pages. The foreground's and the service's threads have consumed CPU
// on either side of ariadne's hot cut, so its plans use both tiers.
TEST(ReclaimPlanner, PinsEveryPolicysCalmAndDesperatePlans) {
  const mem::MemoryConfig config;
  mem::ProcessRegistry registry;
  const auto add = [&](mem::ProcessId pid, int adj, mem::Pages anon, mem::Pages hot,
                       mem::Pages file, mem::Pages working_set) {
    registry.move_pages(registry.add(pid, "p" + std::to_string(pid), adj),
                        {.anon_resident = anon, .file_resident = file,
                         .file_working_set = working_set});
    registry.set_hot_pages(pid, hot);
  };
  add(1, mem::OomAdj::kForeground, 90, 50, 16, 20);
  add(2, mem::OomAdj::kPerceptible, 40, 24, 10, 8);
  add(3, mem::OomAdj::kService, 30, 6, 10, 12);
  add(4, mem::OomAdj::kCached, 24, 4, 12, 6);
  add(5, mem::OomAdj::kCached, 16, 2, 6, 14);
  add(6, mem::OomAdj::kPerceptible, 900, 0, 60, 0);
  registry.set_unevictable(6, true);
  registry.touch(3);

  sim::Engine engine;
  trace::Tracer tracer;
  sched::Scheduler scheduler(engine, tracer, {.cores = {sched::CoreConfig{}}});
  const auto burn = [&](sched::ProcessId pid, double refus) {
    sched::ThreadSpec spec;
    spec.pid = pid;
    scheduler.run_work(scheduler.create_thread(spec), refus, &testkit::nothing, nullptr);
  };
  burn(1, 4000.0);  // hotness 2000 > hot_cut 500: warm tier
  burn(3, 600.0);   // hotness 300 <= 500: cold tier
  engine.run();

  const auto plan = [&](const std::string& name, mem::Pages available) {
    const auto policy = mem::make_mem_policy({name, {}}, config);
    policy->reclaim().attach_scheduler(&scheduler);
    mem::ReclaimView view{registry, available, 1000, 36, 8};
    mem::ReclaimPlan batch;
    policy->reclaim().plan_batch(view, batch);
    return render_plan(batch);
  };
  // Per policy: the calm plan, then the desperate one.
  const std::vector<std::array<std::string, 3>> expected = {
      {"baseline",
       "192 | 4:9 3:4 2:6 1:6 | 4:20/0 5:14/0 3:24/0 2:16/0 1:12/0 | 0 | 40a1c80000000000",
       "192 | 4:12 5:6 3:10 2:10 1:16 | 4:20/0 5:14/0 3:24/0 2:16/0 1:2/0 | 0 | 40a0100000000000"},
      {"swam", "192 | 4:9 3:4 2:6 1:6 | 3:24/0 2:16/0 1:24/0 | 0 | 409c000000000000",
       "192 | 4:12 5:6 3:10 2:10 1:16 | 3:24/0 2:16/0 1:14/0 | 0 | 4098900000000000"},
      {"ariadne",
       "192 | 4:9 3:4 2:6 1:6 | 2:16/0 4:20/0 5:14/0 3:24/0 1:12/1 | 0 | 40a7f80000000000",
       "384 | 4:12 5:6 3:10 2:10 1:16 | 2:16/0 4:20/0 5:14/0 3:24/0 1:40/1 | 28 | "
       "40ae080000000000"},
      {"partitioned", "192 | 4:9 3:4 2:6 1:6 | 4:20/0 5:14/0 3:15/0 | 0 | 4096d80000000000",
       "192 | 4:12 5:6 3:10 2:10 1:16 | 4:20/0 5:14/0 3:5/0 | 0 | 4093680000000000"},
  };
  for (const auto& [name, calm_plan, desperate_plan] : expected) {
    EXPECT_EQ(plan(name, config.minfree_service + 1), calm_plan) << name << " calm";
    EXPECT_EQ(plan(name, config.minfree_service - 1), desperate_plan) << name << " desperate";
  }
}

// The planner as it was before the registry kept its sums: one walk adds
// up the efficiency inputs, two more pick pages, and swap admission is a
// per-process predicate. The kept-sum planner must equal it plan for plan.
struct ReferencePolicy {
  std::array<mem::Pages, 2> calm_desperate_budget;
  std::function<bool(const mem::ProcessMem&)> admit;
  bool hotness_order = false;  // ariadne: coldest first, two tiers
  std::array<double, 2> tier_cpu_refus;
};

mem::ReclaimPlan reference_plan(const mem::MemoryConfig& config, mem::ReclaimView& view,
                                const ReferencePolicy& policy,
                                const std::map<mem::ProcessId, double>& hotness) {
  const auto droppable = [](const mem::ProcessMem& p, bool desperate) {
    const mem::Pages protected_file =
        desperate ? 0 : std::min(p.file_resident, p.file_working_set / 2);
    return p.file_resident - protected_file;
  };
  const auto cold = [](const mem::ProcessMem& p) {
    return std::max<mem::Pages>(0, p.anon_resident - p.hot_pages);
  };
  const auto hot = [&hotness](const mem::ProcessMem& p) {
    const auto it = hotness.find(p.pid);
    return it == hotness.end() ? 0.0 : it->second;
  };
  const bool desperate = view.available < config.minfree_service;
  const mem::Pages budget = policy.calm_desperate_budget[desperate];
  mem::ReclaimPlan plan;
  plan.scanned = budget;
  mem::Pages candidates = 0;
  mem::Pages reclaimable = 0;
  const mem::Pages zram_headroom = config.zram_capacity - view.zram_stored;
  mem::Pages compressible_total = 0;
  for (const mem::ProcessMem* process : view.registry.reclaim_order()) {
    if (process->unevictable) continue;
    candidates += process->anon_resident + process->file_resident;
    reclaimable += droppable(*process, desperate);
    if (policy.admit(*process)) compressible_total += cold(*process);
  }
  reclaimable += std::min(compressible_total, zram_headroom);
  reclaimable += view.file_dirty - view.dirty_in_flight;
  candidates += view.file_dirty;
  const double efficiency =
      candidates > 0 ? static_cast<double>(reclaimable) / static_cast<double>(candidates) : 0.0;
  mem::Pages remaining = static_cast<mem::Pages>(
      std::ceil(static_cast<double>(budget) * std::min(1.0, efficiency)));
  for (const mem::ProcessMem* process : view.registry.reclaim_order()) {
    if (remaining <= 0) break;
    if (process->unevictable) continue;
    const mem::Pages take = std::min(droppable(*process, desperate), remaining);
    if (take <= 0) continue;
    plan.file_drops.push_back({process, take});
    remaining -= take;
  }
  std::array<mem::Pages, 2> tier_pages = {0, 0};
  if (remaining > 0) {
    std::vector<const mem::ProcessMem*> order;
    for (const mem::ProcessMem* process : view.registry.reclaim_order()) {
      if (!policy.hotness_order || !process->unevictable) order.push_back(process);
    }
    if (policy.hotness_order) {
      std::sort(order.begin(), order.end(), [&](const mem::ProcessMem* a, const mem::ProcessMem* b) {
        if (hot(*a) != hot(*b)) return hot(*a) < hot(*b);
        return a->lru_seq < b->lru_seq;
      });
    }
    mem::Pages zram_space = zram_headroom;
    for (const mem::ProcessMem* process : order) {
      if (remaining <= 0 || zram_space <= 0) break;
      if (process->unevictable || !policy.admit(*process)) continue;
      const mem::Pages take = std::min({cold(*process), remaining, zram_space});
      if (take <= 0) continue;
      const int tier = policy.hotness_order && hot(*process) > 500.0 ? 1 : 0;
      plan.compress.push_back({process, take, tier});
      tier_pages[tier] += take;
      remaining -= take;
      zram_space -= take;
    }
  }
  if (remaining > 0) {
    const mem::Pages writeback = std::min(remaining, view.file_dirty - view.dirty_in_flight);
    if (writeback > 0) plan.writeback = writeback;
  }
  plan.cpu_refus = static_cast<double>(plan.scanned) * config.scan_cpu_refus +
                   static_cast<double>(tier_pages[0]) * policy.tier_cpu_refus[0] +
                   static_cast<double>(tier_pages[1]) * policy.tier_cpu_refus[1];
  return plan;
}

// Seeded random registries through every mutation the registry offers
// (bands on both sides of each admission boundary, unevictable
// processes, hot_pages above resident anon, working sets over twice the
// file pages, dead pids re-added, plans applied as the manager applies
// them): every policy's calm and desperate plan, cpu_refus bits
// included, equals the reference planner's, and the kept sums always
// equal a fresh walk. One plan object is refilled throughout.
TEST(ReclaimPlanner, KeptSumPlansEqualTheThreeWalkPlannerOnRandomRegistries) {
  const mem::MemoryConfig config;
  sim::Engine engine;
  trace::Tracer tracer;
  sched::Scheduler scheduler(engine, tracer, {.cores = {sched::CoreConfig{}}});
  stats::Rng rng(0x5eed);
  constexpr mem::ProcessId kPids = 24;
  for (mem::ProcessId pid = 1; pid <= kPids; pid += 2) {
    sched::ThreadSpec spec;
    spec.pid = pid;
    scheduler.run_work(scheduler.create_thread(spec), rng.uniform(0.0, 2000.0),
                       &testkit::nothing, nullptr);
  }
  engine.run();
  // ariadne's hotness after its first sample: half each pid's CPU.
  std::map<mem::ProcessId, double> hotness;
  for (sched::ThreadId tid = 1; tid <= scheduler.thread_count(); ++tid) {
    hotness[static_cast<mem::ProcessId>(scheduler.pid_of(tid))] +=
        scheduler.counters(tid).cpu_refus_consumed;
  }
  for (auto& [pid, cpu] : hotness) cpu = 0.5 * 0.0 + 0.5 * cpu;

  const mem::Pages batch = config.kswapd_batch;
  const auto all = [](const mem::ProcessMem&) { return true; };
  const std::vector<std::pair<std::string, ReferencePolicy>> policies = {
      {"baseline", {{batch, batch}, all, false, {config.compress_cpu_refus, config.compress_cpu_refus}}},
      {"swam",
       {{batch, batch},
        [](const mem::ProcessMem& p) { return p.oom_adj < mem::OomAdj::kCached; },
        false,
        {config.compress_cpu_refus, config.compress_cpu_refus}}},
      {"ariadne", {{batch, batch * 2}, all, true, {34.0, 14.0}}},
      {"partitioned",
       {{batch, batch},
        [](const mem::ProcessMem& p) { return p.oom_adj > mem::OomAdj::kPerceptible; },
        false,
        {config.compress_cpu_refus, config.compress_cpu_refus}}},
  };
  const std::array<int, 9> adjs = {mem::OomAdj::kForeground,  mem::OomAdj::kVisible,
                                   mem::OomAdj::kPerceptible, mem::OomAdj::kPerceptible + 1,
                                   mem::OomAdj::kService,     mem::OomAdj::kCached - 1,
                                   mem::OomAdj::kCached,      mem::OomAdj::kCached + 50,
                                   mem::OomAdj::kCached + 99};
  const auto pick_adj = [&] { return adjs[static_cast<std::size_t>(rng.uniform_int(0, 8))]; };
  mem::ReclaimPlan plan;
  int compared = 0;
  int drops = 0;
  int writebacks = 0;
  std::array<int, 2> tier_takes = {0, 0};
  for (int trial = 0; trial < 60; ++trial) {
    mem::ProcessRegistry registry;
    const mem::Pages scale = rng.uniform_int(1, 4) * 40;
    for (int step = 0; step < 12; ++step) {
      // Mutate: register or re-register, resize, reband, pin, touch, kill.
      for (int m = 0; m < 8; ++m) {
        const auto pid = static_cast<mem::ProcessId>(rng.uniform_int(1, kPids));
        const mem::ProcessMem* process = registry.find(pid);
        if (process == nullptr) {
          process = &registry.add(pid, "p", pick_adj());
        }
        switch (rng.uniform_int(0, 6)) {
          case 0:
          case 1: {
            const mem::Pages file = rng.uniform_int(0, scale);
            registry.move_pages(*process,
                                {.anon_resident = rng.uniform_int(0, scale),
                                 .anon_swapped = rng.uniform_int(0, scale / 2),
                                 .file_resident = file,
                                 .file_working_set = rng.uniform_int(0, 3 * file + 10)});
            break;
          }
          case 2:  // may exceed resident anon: swapped pages count toward it
            registry.set_hot_pages(pid, rng.uniform_int(0, process->anon_resident +
                                                               process->anon_swapped + 20));
            break;
          case 3: registry.set_oom_adj(pid, pick_adj()); break;
          case 4: registry.set_unevictable(pid, rng.bernoulli(0.3)); break;
          case 5: registry.touch(pid); break;
          case 6:
            if (rng.bernoulli(0.4)) registry.remove(pid);
            break;
        }
      }
      ASSERT_EQ(registry.stale_sum(), "") << "trial " << trial << " step " << step;
      const mem::Pages file_dirty = rng.uniform_int(0, scale);
      const mem::Pages in_flight = rng.uniform_int(0, file_dirty);
      const mem::Pages zram_stored = rng.bernoulli(0.3)
                                         ? config.zram_capacity - rng.uniform_int(0, 300)
                                         : rng.uniform_int(0, config.zram_capacity);
      for (const auto& [name, reference] : policies) {
        for (const bool desperate : {false, true}) {
          const mem::Pages available = config.minfree_service + (desperate ? -1 : 1);
          mem::ReclaimView view{registry, available, zram_stored, file_dirty, in_flight};
          const auto policy = mem::make_mem_policy({name, {}}, config);
          policy->reclaim().attach_scheduler(&scheduler);
          policy->reclaim().plan_batch(view, plan);
          ASSERT_EQ(render_plan(plan), render_plan(reference_plan(config, view, reference, hotness)))
              << name << (desperate ? " desperate" : " calm") << ", trial " << trial << " step "
              << step;
          ++compared;
          drops += !plan.file_drops.empty();
          writebacks += plan.writeback > 0;
          for (const auto& take : plan.compress) ++tier_takes[take.tier];
        }
      }
      // Apply the last (partitioned, desperate) plan the way the manager
      // does, so later steps plan over drained processes.
      for (const auto& take : plan.file_drops) {
        registry.move_pages(*take.process, {.file_resident = -take.pages});
      }
      for (const auto& take : plan.compress) {
        registry.move_pages(*take.process,
                            {.anon_resident = -take.pages, .anon_swapped = take.pages});
      }
      ASSERT_EQ(registry.stale_sum(), "") << "trial " << trial << " step " << step;
    }
  }
  EXPECT_EQ(compared, 60 * 12 * 8);
  // The draws reach every step of the planner.
  EXPECT_GT(drops, compared / 4);
  EXPECT_GT(writebacks, 0);
  EXPECT_GT(tier_takes[0], compared / 4);
  EXPECT_GT(tier_takes[1], 0);
}

// The walks stop where the kept sums say the admitted pages run out: a
// page written behind the registry's back (so no sum counts it), on a
// process past the last counted one in reclaim order, is never reached.
TEST(ReclaimPlanner, WalksStopWhereTheKeptSumsRunOut) {
  const mem::MemoryConfig config;
  mem::ProcessRegistry registry;
  const mem::ProcessMem& cold = registry.add(1, "cold", mem::OomAdj::kCached);
  const mem::ProcessMem& warm = registry.add(2, "warm", mem::OomAdj::kForeground);
  registry.move_pages(cold, {.anon_resident = 10, .file_resident = 10});
  // Uncounted pages on the process the walks would reach last.
  const_cast<mem::ProcessMem&>(warm).file_resident = 500;
  const_cast<mem::ProcessMem&>(warm).anon_resident = 500;
  ASSERT_NE(registry.stale_sum(), "");
  for (const std::string& name : mem::mem_policy_names()) {
    const auto policy = mem::make_mem_policy({name, {}}, config);
    for (const mem::Pages available : {config.minfree_service + 1, config.minfree_service - 1}) {
      mem::ReclaimView view{registry, available, 0, 0, 0};
      mem::ReclaimPlan plan;
      policy->reclaim().plan_batch(view, plan);
      for (const auto& take : plan.file_drops) EXPECT_EQ(take.process, &cold) << name;
      for (const auto& take : plan.compress) EXPECT_EQ(take.process, &cold) << name;
    }
  }
}

// --- the zRAM store's physical size ------------------------------------------

// The store's physical size is an integer ceiling computed without libm,
// equal to the std::ceil formula for every stored count up to the
// store's capacity: the single-tier default at the preset ratio, and
// each of ariadne's tiers at its 3.9 and 2.2.
TEST(ZramPhysical, IntegerCeilingMatchesStdCeilUpToCapacity) {
  const mem::MemoryConfig config;
  const auto formula = [](mem::Pages stored, double ratio) {
    return static_cast<mem::Pages>(std::ceil(static_cast<double>(stored) / ratio));
  };
  const auto single = mem::make_mem_policy({"baseline", {}}, config);
  const auto cold = mem::make_mem_policy({"ariadne", {}}, config);
  const auto warm = mem::make_mem_policy({"ariadne", {}}, config);
  EXPECT_EQ(single->reclaim().zram_physical(0), 0);
  EXPECT_EQ(cold->reclaim().zram_physical(0), 0);
  std::optional<mem::Pages> first_mismatch;
  for (mem::Pages stored = 1; stored <= config.zram_capacity; ++stored) {
    cold->reclaim().note_swap_out(1, 1, 0);
    warm->reclaim().note_swap_out(1, 1, 1);
    if (single->reclaim().zram_physical(stored) != formula(stored, config.zram_compression) ||
        cold->reclaim().zram_physical(stored) != formula(stored, 3.9) ||
        warm->reclaim().zram_physical(stored) != formula(stored, 2.2)) {
      first_mismatch = first_mismatch.value_or(stored);
    }
  }
  EXPECT_EQ(first_mismatch, std::nullopt) << "first at " << first_mismatch.value_or(0);
}

// --- ariadne's hotness table -------------------------------------------------

// Ariadne's state as the policy kept it in std::maps: every batch sums
// each pid's thread counters into a fresh map in ascending tid order,
// then probes the EMA and previous-total maps once per pid. With
// reference_plan's sort, which looks both processes up per comparison,
// and the MPOL bytes these maps wrote, it is the policy as it was.
struct MapAriadne {
  std::map<mem::ProcessId, double> hotness;
  std::map<mem::ProcessId, double> prev_cpu;
  std::map<mem::ProcessId, std::pair<mem::Pages, mem::Pages>> stored;  // cold, warm
  mem::Pages cold = 0;
  mem::Pages warm = 0;

  void sample(const sched::Scheduler& scheduler) {
    std::map<mem::ProcessId, double> cumulative;
    for (sched::ThreadId tid = 1; tid <= scheduler.thread_count(); ++tid) {
      cumulative[scheduler.pid_of(tid)] += scheduler.counters(tid).cpu_refus_consumed;
    }
    for (const auto& [pid, total] : cumulative) {
      double& prev = prev_cpu[pid];
      const double delta = total - prev;
      prev = total;
      double& hot = hotness[pid];
      hot = 0.5 * hot + 0.5 * delta;
    }
  }

  void swap_out(mem::ProcessId pid, mem::Pages pages, int tier) {
    (tier == 0 ? stored[pid].first : stored[pid].second) += pages;
    (tier == 0 ? cold : warm) += pages;
  }

  std::string mpol_bytes() const {
    snapshot::ByteWriter w;
    w.u32(1);
    mem::save_policy_spec(w, {"ariadne", {}});
    w.u32(1);
    w.i64(cold);
    w.i64(warm);
    w.u64(stored.size());
    for (const auto& [pid, tiers] : stored) {
      w.u32(pid);
      w.i64(tiers.first);
      w.i64(tiers.second);
    }
    for (const auto* map : {&hotness, &prev_cpu}) {
      w.u64(map->size());
      for (const auto& [pid, value] : *map) {
        w.u32(pid);
        w.f64(value);
      }
    }
    return std::string(w.view());
  }
};

// The flat table against the maps on seeded thread histories: threads
// created for new pids above and below the known ones and late threads
// for old pids, bursts of fractional work on cores of two speeds (so a
// pid's total depends on the order of its additions), zero-work bursts,
// terminated threads and batches that land mid-burst. At every batch the
// plan (order, tiers, cpu_refus bits) and the MPOL bytes are equal.
TEST(AriadneHotness, FlatTableEqualsThePerBatchMapsPlanForPlan) {
  const mem::MemoryConfig config;
  const mem::Pages batch = config.kswapd_batch;
  const ReferencePolicy reference{
      {batch, batch * 2}, [](const mem::ProcessMem&) { return true; }, true, {34.0, 14.0}};
  int new_low_pids = 0;
  int late_threads = 0;
  int terminated = 0;
  int zero_bursts = 0;
  std::array<int, 2> tier_takes = {0, 0};
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    stats::Rng rng(seed);
    sim::Engine engine;
    trace::Tracer tracer(trace::TraceLevel::Counters);
    sched::Scheduler scheduler(
        engine, tracer, {.cores = {sched::CoreConfig{1.0}, sched::CoreConfig{1.7}}});
    const auto policy = mem::make_mem_policy({"ariadne", {}}, config);
    policy->reclaim().attach_scheduler(&scheduler);
    MapAriadne maps;
    mem::ProcessRegistry registry;
    std::vector<sched::ThreadId> threads;
    std::set<mem::ProcessId> sampled_pids;  // pids with a thread at the last batch
    mem::ReclaimPlan plan;
    for (int step = 0; step < 20; ++step) {
      // Pids come from 20..30 at first, then from 1..30: new pids land
      // below the table's rows as well as above and between them.
      const std::int64_t lowest_pid = step < 5 ? 20 : 1;
      for (int action = 0; action < 6; ++action) {
        switch (rng.uniform_int(0, 4)) {
          case 0: {
            const auto pid = static_cast<sched::ProcessId>(rng.uniform_int(lowest_pid, 30));
            if (!sampled_pids.empty() && pid < *sampled_pids.begin()) ++new_low_pids;
            if (sampled_pids.count(pid) != 0) ++late_threads;
            sched::ThreadSpec spec;
            spec.pid = pid;
            threads.push_back(scheduler.create_thread(spec));
            break;
          }
          case 1:
          case 2:
          case 3: {
            if (threads.empty()) break;
            const sched::ThreadId tid =
                threads[static_cast<std::size_t>(rng.uniform_int(0, threads.size() - 1))];
            if (!scheduler.exists(tid) || !scheduler.is_idle(tid)) break;
            const bool zero = rng.bernoulli(0.15);
            zero_bursts += zero;
            scheduler.run_work(tid, zero ? 0.0 : rng.uniform(1.0, 4000.0), &testkit::nothing,
                               nullptr);
            break;
          }
          case 4: {
            if (threads.empty() || !rng.bernoulli(0.5)) break;
            const sched::ThreadId tid =
                threads[static_cast<std::size_t>(rng.uniform_int(0, threads.size() - 1))];
            if (!scheduler.exists(tid)) break;
            scheduler.terminate(tid);
            ++terminated;
            break;
          }
        }
      }
      engine.run_until(engine.now() + rng.uniform_int(0, 12000));
      // Registry processes for some of the same pids, reshaped each step.
      for (int m = 0; m < 4; ++m) {
        const auto pid = static_cast<mem::ProcessId>(rng.uniform_int(1, 32));
        const mem::ProcessMem* process = registry.find(pid);
        if (process == nullptr) {
          process = &registry.add(pid, "p", rng.bernoulli(0.5) ? mem::OomAdj::kCached
                                                               : mem::OomAdj::kService);
        }
        registry.move_pages(*process, {.anon_resident = rng.uniform_int(0, 24),
                                       .file_resident = rng.uniform_int(0, 8)});
        registry.set_hot_pages(pid, rng.uniform_int(0, 40));
        if (rng.bernoulli(0.3)) registry.touch(pid);
        if (rng.bernoulli(0.1)) registry.set_unevictable(pid, rng.bernoulli(0.5));
      }

      const mem::Pages available = config.minfree_service + (rng.bernoulli(0.3) ? -1 : 1);
      mem::ReclaimView view{registry, available, maps.cold + maps.warm, 0, 0};
      policy->reclaim().plan_batch(view, plan);
      maps.sample(scheduler);
      ASSERT_EQ(render_plan(plan), render_plan(reference_plan(config, view, reference,
                                                               maps.hotness)))
          << "seed " << seed << " step " << step;
      for (const auto& take : plan.compress) {
        registry.move_pages(*take.process,
                            {.anon_resident = -take.pages, .anon_swapped = take.pages});
        policy->reclaim().note_swap_out(take.process->pid, take.pages, take.tier);
        maps.swap_out(take.process->pid, take.pages, take.tier);
        ++tier_takes[take.tier];
      }
      snapshot::ByteWriter mpol;
      policy->save(mpol);
      ASSERT_EQ(mpol.view(), maps.mpol_bytes()) << "seed " << seed << " step " << step;
      for (sched::ThreadId tid = 1; tid <= scheduler.thread_count(); ++tid) {
        sampled_pids.insert(scheduler.pid_of(tid));
      }
    }
  }
  // The histories reach every case the table handles.
  EXPECT_GT(new_low_pids, 0);
  EXPECT_GT(late_threads, 0);
  EXPECT_GT(terminated, 0);
  EXPECT_GT(zero_bursts, 0);
  EXPECT_GT(tier_takes[0], 0);
  EXPECT_GT(tier_takes[1], 0);
}

// --- serialization of the policy axis ---------------------------------------

TEST(PolicySpec, RoundTripsThroughBytesWithParams) {
  mem::MemPolicySpec spec;
  spec.name = "swam";
  spec.params = {{"swap_full_fraction", 0.7}, {"kill_cooldown_ms", 500.0}};
  snapshot::ByteWriter w;
  mem::save_policy_spec(w, spec);
  const std::string bytes = std::move(w).take();
  snapshot::ByteReader r(bytes);
  EXPECT_EQ(mem::load_policy_spec(r), spec);
  EXPECT_TRUE(r.done());
}

TEST(PolicySpec, BaselineScenarioKeepsTheV2Encoding) {
  scenario::ScenarioSpec scen =
      scenario::single_video("fig16", 480, 30, 8, mem::PressureLevel::Low, 7);
  snapshot::ByteWriter w;
  scenario::save_scenario(w, scen);
  const std::string baseline_bytes = std::move(w).take();
  {
    snapshot::ByteReader r(baseline_bytes);
    EXPECT_EQ(r.u32(), 2u) << "a baseline scenario must stay on the pre-policy SCEN version";
  }
  scen.mem_policy.name = "ariadne";
  snapshot::ByteWriter w3;
  scenario::save_scenario(w3, scen);
  const std::string policy_bytes = std::move(w3).take();
  {
    snapshot::ByteReader r(policy_bytes);
    EXPECT_EQ(r.u32(), 3u);
  }
  snapshot::ByteReader r(policy_bytes);
  const scenario::ScenarioSpec back = scenario::load_scenario(r);
  EXPECT_EQ(back.mem_policy.name, "ariadne");
}

// A spec that arrives only as bytes is checked on load like one built in
// code: a NaN parameter in a SCEN section or a sweep config fails to
// load, naming its key.
TEST(PolicySpec, NonFiniteParameterFailsToLoadFromBytes) {
  const auto expect_rejected = [](const std::function<void()>& load, const std::string& key) {
    try {
      load();
      ADD_FAILURE() << "loaded a NaN " << key;
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos) << e.what();
    }
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();

  scenario::ScenarioSpec scen =
      scenario::single_video("fig16", 480, 30, 8, mem::PressureLevel::Low, 7);
  scen.mem_policy = {"swam", {{"kill_cooldown_ms", nan}}};
  snapshot::ByteWriter w;
  scenario::save_scenario(w, scen);
  const std::string scen_bytes = std::move(w).take();
  expect_rejected(
      [&] {
        snapshot::ByteReader r(scen_bytes);
        (void)scenario::load_scenario(r);
      },
      "kill_cooldown_ms");

  campaign::SweepCampaignSpec sweep;
  sweep.mem_policy = {"ariadne", {{"warm_ratio", nan}}};
  const std::string sweep_bytes = campaign::encode_sweep_config(sweep);
  expect_rejected([&] { (void)campaign::decode_sweep_config(sweep_bytes); }, "warm_ratio");
}

TEST(PolicySpec, CampaignAndFleetConfigsCarryThePolicyAxis) {
  campaign::SweepCampaignSpec sweep;
  sweep.mem_policy = {"swam", {{"swap_full_fraction", 0.7}}};
  const campaign::SweepCampaignSpec sweep_back =
      campaign::decode_sweep_config(campaign::encode_sweep_config(sweep));
  EXPECT_EQ(sweep_back.mem_policy, sweep.mem_policy);
  campaign::SweepCampaignSpec plain;
  EXPECT_NE(campaign::encode_sweep_config(sweep), campaign::encode_sweep_config(plain));
  // Baseline encodes to *nothing*: no policy tail, so historical
  // checkpoint fingerprints are untouched by this refactor.
  EXPECT_LT(campaign::encode_sweep_config(plain).size(),
            campaign::encode_sweep_config(sweep).size());

  fleet::FleetSpec fl;
  fl.mem_policy = {"partitioned", {{"reserve_mb", 32.0}}};
  const fleet::FleetSpec fl_back = fleet::decode_fleet_config(fleet::encode_fleet_config(fl));
  EXPECT_EQ(fl_back.mem_policy, fl.mem_policy);
  fleet::FleetSpec fl_plain;
  EXPECT_LT(fleet::encode_fleet_config(fl_plain).size(), fleet::encode_fleet_config(fl).size());

  campaign::PolicyCompareSpec compare;
  compare.base.duration_s = 8;
  compare.base.states = {mem::PressureLevel::Low};
  compare.base.fps = {30};
  compare.base.heights = {480};
  compare.base.runs = 2;
  for (const std::string& name : mem::mem_policy_names()) {
    compare.policies.push_back({name, {}});
  }
  const campaign::PolicyCompareSpec compare_back =
      campaign::decode_policy_config(campaign::encode_policy_config(compare));
  ASSERT_EQ(compare_back.policies.size(), compare.policies.size());
  for (std::size_t i = 0; i < compare.policies.size(); ++i) {
    EXPECT_EQ(compare_back.policies[i], compare.policies[i]);
  }
  EXPECT_EQ(campaign::policy_total_units(compare),
            compare.policies.size() * campaign::sweep_total_units(compare.base));
}

// Every config that carries a policy or link spec, pinned by size and
// digest: checkpoints and SCEN blobs written by older builds must keep
// decoding, so the tail order, the default-elision rule and the codec's
// field widths may never move.
TEST(PolicySpec, EveryConfigCarryingASpecKeepsItsWireBytes) {
  const mem::MemPolicySpec swam{"swam", {{"swap_full_fraction", 0.7}, {"kill_cooldown_ms", 500.0}}};
  const net::NetSpec cubic{"cubic", {{"mss", 1200.0}, {"queue_kb", 32.0}}};
  std::vector<std::pair<std::string, std::string>> encodings;

  const auto sweep = [&](const mem::MemPolicySpec& policy, const net::NetSpec& link) {
    campaign::SweepCampaignSpec spec;
    spec.mem_policy = policy;
    spec.net = link;
    return campaign::encode_sweep_config(spec);
  };
  encodings.emplace_back("sweep default", sweep({}, {}));
  encodings.emplace_back("sweep swam", sweep(swam, {}));
  encodings.emplace_back("sweep swam+cubic", sweep(swam, cubic));
  encodings.emplace_back("sweep baseline+cubic", sweep({}, cubic));

  const auto fleet = [&](const mem::MemPolicySpec& policy, const net::NetSpec& link) {
    fleet::FleetSpec spec;
    spec.mem_policy = policy;
    spec.net = link;
    return fleet::encode_fleet_config(spec);
  };
  encodings.emplace_back("fleet default", fleet({}, {}));
  encodings.emplace_back("fleet swam", fleet(swam, {}));
  encodings.emplace_back("fleet swam+cubic", fleet(swam, cubic));
  encodings.emplace_back("fleet baseline+cubic", fleet({}, cubic));

  campaign::PolicyCompareSpec compare;
  for (const std::string& name : mem::mem_policy_names()) compare.policies.push_back({name, {}});
  encodings.emplace_back("compare 4 policies", campaign::encode_policy_config(compare));
  compare.base.net = cubic;
  compare.policies[1] = swam;
  encodings.emplace_back("compare tuned+cubic", campaign::encode_policy_config(compare));

  check::FuzzOptions fuzz;
  encodings.emplace_back("fuzz default", campaign::encode_fuzz_config(fuzz));
  fuzz.generator.policies = {"baseline", "swam"};
  fuzz.generator.ccs = {"fifo", "cubic"};
  encodings.emplace_back("fuzz policies+ccs", campaign::encode_fuzz_config(fuzz));

  scenario::ScenarioSpec scen =
      scenario::single_video("fig16", 480, 30, 8, mem::PressureLevel::Low, 7);
  const auto scen_bytes = [&] {
    snapshot::ByteWriter w;
    scenario::save_scenario(w, scen);
    return std::move(w).take();
  };
  encodings.emplace_back("SCEN v2", scen_bytes());
  scen.mem_policy = swam;
  encodings.emplace_back("SCEN v3 swam", scen_bytes());
  scen.net = cubic;
  encodings.emplace_back("SCEN v4 swam+cubic", scen_bytes());

  const std::vector<std::string> expected = {
      "sweep default 78 724e165d76b5eb84",      "sweep swam 148 be903d77b50d9792",
      "sweep swam+cubic 196 6f8c09366416758e",  "sweep baseline+cubic 142 914d15095881cfec",
      "fleet default 40 836108e1b81f85f4",      "fleet swam 110 0f5662024c714136",
      "fleet swam+cubic 158 dc55ccf2f4fa6513",  "fleet baseline+cubic 104 d3120a59cd242f89",
      "compare 4 policies 152 fc921b54b305fe57", "compare tuned+cubic 274 c7f414d924940f55",
      "fuzz default 90 b0aa2e1e9e89aabc",       "fuzz policies+ccs 143 9a81529b689e495f",
      "SCEN v2 160 b95152c519e45743",           "SCEN v3 swam 230 f5b187f14d3874d4",
      "SCEN v4 swam+cubic 278 3fc342ed6b152e23",
  };
  ASSERT_EQ(encodings.size(), expected.size());
  for (std::size_t i = 0; i < encodings.size(); ++i) {
    const auto& [name, bytes] = encodings[i];
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(snapshot::digest_bytes(bytes)));
    EXPECT_EQ(name + " " + std::to_string(bytes.size()) + " " + digest, expected[i]);
  }
}

// --- byte-supplied counts ----------------------------------------------------

// Every decoder that sizes a list by a count read from bytes checks the
// count against the bytes left first (ByteReader::count): a count of
// 0xFFFFFFFF followed by nothing is a truncated stream, never a
// host-dependent bad_alloc or length_error.
void expect_truncated(const std::function<void()>& decode) {
  try {
    decode();
    ADD_FAILURE() << "decoded a count its bytes cannot hold";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "snapshot: truncated byte stream");
  }
}

std::string with_tail(std::string_view head, const std::function<void(snapshot::ByteWriter&)>& tail) {
  snapshot::ByteWriter w;
  w.raw(head);
  tail(w);
  return std::move(w).take();
}

TEST(ByteCounts, PolicyConfigRefusesAPolicyCountItsBytesCannotHold) {
  snapshot::ByteWriter head;
  head.u32(1);  // config version
  head.str(campaign::encode_sweep_config({}));
  const std::string bytes = with_tail(head.view(), [](snapshot::ByteWriter& w) { w.u32(~0u); });
  expect_truncated([&] { (void)campaign::decode_policy_config(bytes); });
}

TEST(ByteCounts, FuzzConfigRefusesPolicyAndCcCountsItsBytesCannotHold) {
  check::FuzzOptions fuzz;
  const auto count = [](snapshot::ByteWriter& w) { w.u32(~0u); };
  const std::string policies = with_tail(campaign::encode_fuzz_config(fuzz), count);
  expect_truncated([&] { (void)campaign::decode_fuzz_config(policies); });
  fuzz.generator.policies = {"baseline"};  // the tail's policy list, then the cc count
  const std::string ccs = with_tail(campaign::encode_fuzz_config(fuzz), count);
  expect_truncated([&] { (void)campaign::decode_fuzz_config(ccs); });
}

TEST(ByteCounts, CheckpointRefusesUnitAndShardCountsItsBytesCannotHold) {
  const auto checkpoint = [](std::uint64_t total_units, std::uint64_t unit_count,
                             std::optional<std::uint32_t> shard_count) {
    snapshot::ByteWriter w;
    w.u32(1);  // CAMP version
    w.u64(0);  // fingerprint
    w.str("config");
    w.u64(total_units);
    w.u64(unit_count);
    if (shard_count) w.u32(*shard_count);
    snapshot::Snapshot blob;
    blob.put(campaign::kCampaignTag, std::move(w));
    return blob;
  };
  // The unit count is bounded only by the total, itself read from bytes.
  const snapshot::Snapshot units = checkpoint(~0ull, ~0ull, std::nullopt);
  expect_truncated([&] { (void)campaign::load_checkpoint(units); });
  const snapshot::Snapshot shards = checkpoint(0, 0, ~0u);
  expect_truncated([&] { (void)campaign::load_checkpoint(shards); });
}

TEST(ByteCounts, FleetAggregateRefusesSketchCountsItsBytesCannotHold) {
  const fleet::FleetAggregate aggregate;
  const std::string bytes = aggregate.encode();
  // The first sketch (utilization quantiles) starts with k, n, min, max.
  const stats::QuantileSketch::State state = aggregate.utilization_quantiles.save_state();
  snapshot::ByteWriter head;
  head.u64(state.k);
  head.u64(state.n);
  head.f64(state.min);
  head.f64(state.max);
  const std::size_t at = bytes.find(head.view());
  ASSERT_NE(at, std::string::npos);
  const std::string prefix = bytes.substr(0, at + head.size());
  const std::string levels = with_tail(prefix, [](snapshot::ByteWriter& w) { w.u32(~0u); });
  expect_truncated([&] { (void)fleet::FleetAggregate::decode(levels); });
  const std::string values = with_tail(prefix, [](snapshot::ByteWriter& w) {
    w.u32(1);  // one level
    w.u8(0);   // its parity
    w.u32(~0u);
  });
  expect_truncated([&] { (void)fleet::FleetAggregate::decode(values); });
}

TEST(ByteCounts, FleetAggregateRefusesAHistogramBinCountItsBytesCannotHold) {
  const fleet::FleetAggregate aggregate;
  const std::string bytes = aggregate.encode();
  // The first histogram (utilization) starts with lo, hi and the policy byte.
  snapshot::ByteWriter head;
  head.f64(aggregate.utilization.low());
  head.f64(aggregate.utilization.high());
  head.u8(static_cast<std::uint8_t>(aggregate.utilization.policy()));
  const std::size_t at = bytes.find(head.view());
  ASSERT_NE(at, std::string::npos);
  const std::string bins = with_tail(bytes.substr(0, at + head.size()),
                                     [](snapshot::ByteWriter& w) { w.u32(~0u); });
  expect_truncated([&] { (void)fleet::FleetAggregate::decode(bins); });
}

/// A blob whose `tag` section is a version-1 list with `count` entries
/// and nothing after the count.
snapshot::Snapshot counted_section(std::uint32_t tag, std::uint64_t count) {
  snapshot::ByteWriter w;
  w.u32(1);  // section version
  w.u64(count);
  snapshot::Snapshot blob;
  blob.put(tag, std::move(w));
  return blob;
}

TEST(ByteCounts, DigestTrailRefusesAnEntryCountItsBytesCannotHold) {
  const snapshot::Snapshot blob = counted_section(snapshot::replay::kTrailTag, ~0ull);
  expect_truncated([&] { (void)snapshot::replay::load_trail(blob); });
}

TEST(ByteCounts, SubsystemDigestsRefuseAnEntryCountTheirBytesCannotHold) {
  const snapshot::Snapshot blob = counted_section(snapshot::replay::kSubsystemDigestsTag, ~0ull);
  expect_truncated([&] { (void)snapshot::replay::load_subsystem_digests(blob); });
}

TEST(ByteCounts, FaultPlanRefusesListCountsItsBytesCannotHold) {
  // Outages, rate steps, storage windows, thermal windows, kills: each
  // list's count in turn, after the earlier lists came empty.
  for (int list = 0; list < 5; ++list) {
    snapshot::ByteWriter w;
    w.u32(1);  // fault-plan version
    for (int empty = 0; empty < list; ++empty) w.u64(0);
    w.u64(~0ull);
    const std::string bytes = std::move(w).take();
    SCOPED_TRACE(list);
    expect_truncated([&] {
      snapshot::ByteReader r(bytes);
      (void)scenario::load_fault_plan(r);
    });
  }
}

// --- reference-scenario differential suite -----------------------------------

scenario::ScenarioSpec reference_spec(const std::string& policy) {
  scenario::ScenarioSpec scen =
      scenario::single_video("fig16", 480, 30, 10, mem::PressureLevel::Low, 7);
  scen.mem_policy.name = policy;
  return scen;
}

struct ReferenceRun {
  std::uint64_t digest = 0;
  bool has_mpol = false;
  /// (at, pid, oom_adj, min_adj) per kill, in time order.
  std::vector<std::tuple<sim::Time, mem::ProcessId, int, int>> kills;
  std::vector<std::string> kill_policy_names;
};

ReferenceRun run_reference(const std::string& policy) {
  scenario::ScenarioDriver driver(reference_spec(policy));
  driver.run();
  ReferenceRun out;
  out.digest = driver.state_digest();
  for (const auto& [name, digest] : driver.subsystem_digests()) {
    if (name == "mem-policy") out.has_mpol = true;
  }
  for (const mem::MemoryManager::KillAudit& kill : driver.testbed().memory.kill_audits()) {
    out.kills.emplace_back(kill.at, kill.pid, kill.oom_adj, kill.min_adj);
    out.kill_policy_names.push_back(kill.policy_name);
  }
  return out;
}

// Each policy is deterministic run-to-run, every kill audit names the
// deciding policy, and only ariadne (per-process hotness + tiered store)
// registers an MPOL snapshot section.
TEST(PolicyDifferential, EachPolicyIsDeterministicAndAuditsItsKills) {
  for (const std::string& name : mem::mem_policy_names()) {
    const ReferenceRun first = run_reference(name);
    const ReferenceRun second = run_reference(name);
    EXPECT_EQ(first.digest, second.digest) << name;
    EXPECT_EQ(first.kills, second.kills) << name;
    EXPECT_FALSE(first.kills.empty())
        << name << ": the reference scenario must exercise the kill path";
    for (const std::string& audited : first.kill_policy_names) {
      EXPECT_EQ(audited, name);
    }
    EXPECT_EQ(first.has_mpol, name == "ariadne") << name;
  }
}

// The whole point of the lab: on one identically-seeded world, the four
// policies make pairwise-different kill decisions.
TEST(PolicyDifferential, PoliciesProducePairwiseDistinctKillSequences) {
  std::vector<ReferenceRun> runs;
  for (const std::string& name : mem::mem_policy_names()) {
    runs.push_back(run_reference(name));
  }
  for (std::size_t a = 0; a < runs.size(); ++a) {
    for (std::size_t b = a + 1; b < runs.size(); ++b) {
      EXPECT_NE(runs[a].kills, runs[b].kills)
          << mem::mem_policy_names()[a] << " vs " << mem::mem_policy_names()[b];
      EXPECT_NE(runs[a].digest, runs[b].digest)
          << mem::mem_policy_names()[a] << " vs " << mem::mem_policy_names()[b];
    }
  }
}

// --- pinned policy state -----------------------------------------------------

// Each policy's reference world ends in the state recorded when ariadne
// kept its hotness in std::maps rebuilt every batch: however a policy
// stores its state, every byte the world saves stays equal.
TEST(PolicyPin, ReferenceWorldDigestsArePinned) {
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"baseline", 0x44664984445f07b0},
      {"swam", 0x4940acf627cc0217},
      {"ariadne", 0x72678225015c55be},
      {"partitioned", 0x96de6bfe142f1c80},
  };
  for (const auto& [name, digest] : expected) {
    const ReferenceRun run = run_reference(name);
    EXPECT_EQ(run.digest, digest) << name << " digest 0x" << std::hex << run.digest;
  }
}

// Ariadne's MPOL section and the whole world's state after start and at
// every 1 s slice of fig16 worlds under synthetic (Normal, Critical) and
// organic pressure, folded into one hash per world, pinned as recorded
// with the per-batch maps. Every world compresses pages, so its hotness
// order and tiers are exercised, and its MPOL digest moves.
TEST(PolicyPin, AriadneStateIsPinnedAtEverySlice) {
  struct World {
    mem::PressureLevel state;
    int organic_apps;
    int height;
    std::uint64_t seed;
    std::uint64_t expected;
  };
  const std::vector<World> worlds = {
      {mem::PressureLevel::Normal, 0, 720, 11, 0x20d8eb8b7eb4ea6b},
      {mem::PressureLevel::Critical, 0, 480, 12, 0xa3c846a1ddaf2409},
      {mem::PressureLevel::Normal, 6, 720, 13, 0xa4e80fb2b4da86eb},
      {mem::PressureLevel::Critical, 6, 480, 14, 0x76d79ac8da7eadce},
  };
  for (const World& world : worlds) {
    scenario::ScenarioSpec spec =
        scenario::single_video("fig16", world.height, 30, 30, world.state, world.seed);
    spec.organic_background_apps = world.organic_apps;
    spec.mem_policy.name = "ariadne";
    scenario::ScenarioDriver driver(spec);
    snapshot::StateHash hash;
    std::size_t slices = 0;
    std::set<std::uint64_t> mpol_digests;
    const auto fold = [&] {
      for (const auto& [name, digest] : driver.subsystem_digests()) {
        if (name != "mem-policy") continue;
        hash.mix(digest);
        mpol_digests.insert(digest);
      }
      hash.mix(driver.state_digest());
    };
    driver.prepare();
    driver.start();
    fold();
    while (driver.advance_slice()) {
      ++slices;
      fold();
    }
    driver.finalize();
    const std::string label = std::string(mem::to_string(world.state)) + "/" +
                              std::to_string(world.organic_apps);
    EXPECT_GE(slices, 10u) << label;
    EXPECT_GT(mpol_digests.size(), 1u) << label;
    EXPECT_GT(driver.testbed().memory.vmstat().pswpout, 0u) << label;
    EXPECT_EQ(hash.value(), world.expected) << label << " hash 0x" << std::hex << hash.value();
  }
}

// Every lane of a compare IS the plain sweep campaign of the base grid
// under that lane's policy: the policy-major unit mapping may never
// perturb the mechanism's results, and a lane runs every other field of
// the base grid — its link included.
TEST(PolicyCompare, BaselineLaneMatchesPlainSweepByteForByte) {
  campaign::SweepCampaignSpec fifo;
  fifo.duration_s = 8;
  fifo.states = {mem::PressureLevel::Low};
  fifo.fps = {30};
  fifo.heights = {480};
  fifo.runs = 2;
  fifo.seed = 5;
  campaign::SweepCampaignSpec cubic = fifo;
  cubic.net.cc = "cubic";

  std::vector<std::string> baseline_lanes;
  for (const campaign::SweepCampaignSpec& base : {fifo, cubic}) {
    SCOPED_TRACE(base.net.cc);
    const auto json = [&base](const std::vector<runner::SweepCellResult>& cells) {
      return runner::sweep_json("lane", cells, base.runs, 1, base.seed);
    };
    campaign::PolicyCompareSpec compare;
    compare.base = base;
    for (const std::string& name : mem::mem_policy_names()) {
      compare.policies.push_back({name, {}});
    }
    const campaign::PolicyCompareResult result =
        campaign::run_policy_compare(compare, campaign::CampaignOptions{});
    ASSERT_TRUE(result.campaign.complete);
    ASSERT_EQ(result.lanes.size(), 4u);

    for (const campaign::PolicyLane& lane : result.lanes) {
      campaign::SweepCampaignSpec plain = base;
      plain.mem_policy = lane.policy;
      const campaign::SweepCampaignResult sweep =
          campaign::run_sweep_campaign(plain, campaign::CampaignOptions{});
      ASSERT_TRUE(sweep.campaign.complete);
      EXPECT_EQ(json(lane.cells), json(sweep.cells)) << lane.policy.name;
    }

    // And the four lanes are pairwise distinct grids.
    for (std::size_t a = 0; a < result.lanes.size(); ++a) {
      for (std::size_t b = a + 1; b < result.lanes.size(); ++b) {
        EXPECT_NE(json(result.lanes[a].cells), json(result.lanes[b].cells))
            << result.lanes[a].policy.name << " vs " << result.lanes[b].policy.name;
      }
    }
    baseline_lanes.push_back(json(result.lanes[0].cells));
  }
  // The link is a real axis of this grid: a compare that dropped it
  // would run its cubic lanes on fifo and fail the lane checks above.
  EXPECT_NE(baseline_lanes[0], baseline_lanes[1]);
}

}  // namespace
}  // namespace mvqoe
