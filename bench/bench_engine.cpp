// Engine hot-path microbenchmark -> BENCH_engine.json.
//
// Measures the event-queue hot paths against a faithful replica of the
// pre-arena engine (see legacy_engine.hpp), so the baseline and the
// speedup are recorded in the same run on the same machine:
//
//   * schedule_dispatch — self-rescheduling event chains, the shape of
//     every periodic sampler / timeslice chain (events/sec).
//   * cancel_storm — park far-future timers and cancel them all, the
//     shape the compaction bound exists for (ops/sec).
//   * timeslice_rearm — cancel-one/schedule-two per dispatch, the exact
//     shape of Scheduler::arm_core_event (ops/sec).
//   * fig16_world — a real single-video scenario world; slices/sec and
//     engine events/sec (arena engine only; no legacy world exists).
//
// `--smoke` runs reduced iterations (the bench-smoke ctest tier, ~15 s)
// and exits non-zero when the arena-vs-legacy dispatch speedup falls
// below a conservative floor, so an engine throughput regression fails
// the suite instead of silently landing.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "legacy_engine.hpp"
#include "mem/types.hpp"
#include "runner/batch.hpp"
#include "runner/json_writer.hpp"
#include "scenario/driver.hpp"
#include "scenario/spec.hpp"
#include "sim/engine.hpp"

namespace mvqoe {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Best-of-N throughput: reruns a workload and keeps the fastest rate.
template <typename F>
double best_of(int reps, F workload) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) best = std::max(best, workload());
  return best;
}

/// Legacy and arena throughput of one workload, run as `reps`
/// interleaved legacy/arena pairs: a load burst from other processes
/// then lands inside one pair instead of on one side's whole
/// measurement. The rates are each side's best; the speedup is the
/// median of the per-pair ratios.
struct Paired {
  double legacy = 0.0;
  double arena = 0.0;
  double speedup = 0.0;
};

template <typename L, typename A>
Paired paired(int reps, L legacy, A arena) {
  Paired out;
  std::vector<double> ratios;
  for (int r = 0; r < reps; ++r) {
    const double legacy_rate = legacy();
    const double arena_rate = arena();
    out.legacy = std::max(out.legacy, legacy_rate);
    out.arena = std::max(out.arena, arena_rate);
    ratios.push_back(arena_rate / legacy_rate);
  }
  std::sort(ratios.begin(), ratios.end());
  out.speedup = ratios[ratios.size() / 2];
  return out;
}

// ---------------------------------------------------------------------------
// Workload 1: schedule -> dispatch chains (events/sec)
// ---------------------------------------------------------------------------

/// Capture state sized like the real scheduler lambdas ([this, core_idx,
/// is_slice] ~ 24 bytes): past std::function's SSO window, so the legacy
/// path pays the per-event allocation real call sites paid.
struct ChainCtx {
  void* engine = nullptr;
  std::uint64_t remaining = 0;
  std::uint64_t chain = 0;
};

template <typename EngineT>
double run_dispatch_closures(std::uint64_t total_events, int chains) {
  EngineT engine;
  std::uint64_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  std::function<void(std::uint64_t)> tick = [&](std::uint64_t chain) {
    ++fired;
    if (fired + static_cast<std::uint64_t>(chains) <= total_events) {
      ChainCtx ctx{&engine, total_events - fired, chain};
      engine.schedule(1, [&tick, ctx] { tick(ctx.chain); });
    }
  };
  for (int c = 0; c < chains; ++c) {
    ChainCtx ctx{&engine, total_events, static_cast<std::uint64_t>(c)};
    engine.schedule(1, [&tick, ctx] { tick(ctx.chain); });
  }
  engine.run();
  return static_cast<double>(engine.dispatched()) / seconds_since(start);
}

struct FlatChain {
  sim::Engine* engine = nullptr;
  std::uint64_t fired = 0;
  std::uint64_t budget = 0;
  std::uint64_t chains = 0;
  static void tick(void* ctx, std::uint64_t chain) {
    auto* self = static_cast<FlatChain*>(ctx);
    ++self->fired;
    if (self->fired + self->chains <= self->budget) {
      self->engine->schedule_flat(1, &FlatChain::tick, self, chain);
    }
  }
};

double run_dispatch_flat(std::uint64_t total_events, int chains) {
  sim::Engine engine;
  FlatChain state{&engine, 0, total_events, static_cast<std::uint64_t>(chains)};
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < chains; ++c) {
    engine.schedule_flat(1, &FlatChain::tick, &state, static_cast<std::uint64_t>(c));
  }
  engine.run();
  return static_cast<double>(engine.dispatched()) / seconds_since(start);
}

// ---------------------------------------------------------------------------
// Workload 2: schedule/cancel storm (ops/sec; an op = schedule or cancel)
// ---------------------------------------------------------------------------

template <typename EngineT>
double run_cancel_storm(std::uint64_t rounds) {
  EngineT engine;
  std::vector<typename std::decay_t<decltype(engine.schedule_at(0, nullptr))>> batch;
  std::uint64_t ops = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t round = 0; round < rounds; ++round) {
    batch.clear();
    for (int i = 0; i < 40; ++i) {
      batch.push_back(engine.schedule_at(sim::hours(1), [] {}));
    }
    for (const auto id : batch) engine.cancel(id);
    ops += 80;
  }
  return static_cast<double>(ops) / seconds_since(start);
}

// ---------------------------------------------------------------------------
// Workload 3: timeslice re-arm (Scheduler::arm_core_event shape)
// ---------------------------------------------------------------------------

template <typename EngineT>
double run_rearm_closures(std::uint64_t total_events) {
  EngineT engine;
  std::uint64_t fired = 0;
  auto parked = engine.schedule_at(sim::hours(1), [] {});
  std::function<void()> tick = [&] {
    ++fired;
    engine.cancel(parked);
    parked = engine.schedule_at(engine.now() + sim::hours(1), [] {});
    if (fired < total_events) {
      ChainCtx ctx{&engine, total_events - fired, 0};
      engine.schedule(1, [&tick, ctx] { tick(); });
    }
  };
  const auto start = std::chrono::steady_clock::now();
  engine.schedule(1, [&tick] { tick(); });
  engine.run();
  (void)parked;
  return 3.0 * static_cast<double>(fired) / seconds_since(start);
}

struct FlatRearm {
  sim::Engine* engine = nullptr;
  sim::EventId parked = sim::kInvalidEvent;
  std::uint64_t fired = 0;
  std::uint64_t budget = 0;
  static void noop(void*, std::uint64_t) {}
  static void tick(void* ctx, std::uint64_t) {
    auto* self = static_cast<FlatRearm*>(ctx);
    ++self->fired;
    self->engine->cancel(self->parked);
    self->parked = self->engine->schedule_flat(sim::hours(1), &FlatRearm::noop, self);
    if (self->fired < self->budget) {
      self->engine->schedule_flat(1, &FlatRearm::tick, self);
    }
  }
};

double run_rearm_flat(std::uint64_t total_events) {
  sim::Engine engine;
  FlatRearm state{&engine, sim::kInvalidEvent, 0, total_events};
  state.parked = engine.schedule_flat(sim::hours(1), &FlatRearm::noop, &state);
  const auto start = std::chrono::steady_clock::now();
  engine.schedule_flat(1, &FlatRearm::tick, &state);
  engine.run();
  return 3.0 * static_cast<double>(state.fired) / seconds_since(start);
}

// ---------------------------------------------------------------------------
// Workload 4: fig16-class world (slices/sec, events/sec)
// ---------------------------------------------------------------------------

struct WorldResult {
  double slices_per_sec = 0.0;
  double events_per_sec = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancels = 0;
  std::uint64_t digest = 0;
};

WorldResult run_fig16_world(int duration_s) {
  scenario::ScenarioDriver driver(scenario::single_video(
      "fig16", 480, 30, duration_s, mem::PressureLevel::Critical, 42));
  driver.prepare();
  driver.start();
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t before = driver.testbed().engine.dispatched();
  std::uint64_t slices = 0;
  while (driver.advance_slice()) ++slices;
  const double wall = seconds_since(start);
  WorldResult out;
  out.events = driver.testbed().engine.dispatched() - before;
  out.scheduled = driver.testbed().engine.scheduled();
  out.cancels = driver.testbed().engine.cancels();
  out.slices_per_sec = static_cast<double>(slices) / wall;
  out.events_per_sec = static_cast<double>(out.events) / wall;
  out.sim_seconds = static_cast<double>(slices);
  out.digest = driver.state_digest();
  driver.finalize();
  return out;
}

}  // namespace
}  // namespace mvqoe

int main(int argc, char** argv) {
  using namespace mvqoe;

  bool smoke = false;
  int chains = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--chains") == 0 && i + 1 < argc) {
      chains = runner::parse_arg(argc, argv, ++i, "--chains", chains, 1);
    }
  }
  // Iteration budget: sized so the smoke tier fits a ~15 s suite slot.
  // Every workload is run `reps` times (legacy and arena as interleaved
  // pairs, see paired()).
  const int reps = 3;
  const std::uint64_t dispatch_events = smoke ? 1'500'000 : 6'000'000;
  const std::uint64_t storm_rounds = smoke ? 40'000 : 160'000;
  const std::uint64_t rearm_events = smoke ? 500'000 : 2'000'000;
  const int world_duration_s = smoke ? 16 : 60;

  std::printf("engine hot-path bench (%s)\n", smoke ? "smoke" : "full");

  // Headline: the single-world hot path. One dispatched event per
  // iteration plus the cancel-one/schedule-two timer re-arm that the
  // scheduler performs around it (Scheduler::arm_core_event) — the
  // busiest engine pattern a single simulated device produces.
  const Paired hot = paired(
      reps, [&] { return run_rearm_closures<bench::LegacyEngine>(rearm_events); },
      [&] { return run_rearm_flat(rearm_events); });
  std::printf("single_world_hot_path  legacy %12.0f ev/s  arena %12.0f ev/s  speedup %.2fx\n",
              hot.legacy, hot.arena, hot.speedup);

  const Paired chain = paired(
      reps, [&] { return run_dispatch_closures<bench::LegacyEngine>(dispatch_events, 1); },
      [&] { return run_dispatch_flat(dispatch_events, 1); });
  const double arena_chain_closure = best_of(reps, [&] {
    return run_dispatch_closures<sim::Engine>(dispatch_events, 1);
  });
  std::printf("schedule_dispatch      legacy %12.0f ev/s  arena %12.0f ev/s  "
              "(closure %12.0f ev/s)  speedup %.2fx\n",
              chain.legacy, chain.arena, arena_chain_closure, chain.speedup);

  const Paired inter = paired(
      reps, [&] { return run_dispatch_closures<bench::LegacyEngine>(dispatch_events, chains); },
      [&] { return run_dispatch_flat(dispatch_events, chains); });
  std::printf("dispatch_interleaved   legacy %12.0f ev/s  arena %12.0f ev/s  "
              "(%d chains)  speedup %.2fx\n",
              inter.legacy, inter.arena, chains, inter.speedup);

  const Paired storm = paired(
      reps, [&] { return run_cancel_storm<bench::LegacyEngine>(storm_rounds); },
      [&] { return run_cancel_storm<sim::Engine>(storm_rounds); });
  std::printf("cancel_storm           legacy %12.0f op/s  arena %12.0f op/s  speedup %.2fx\n",
              storm.legacy, storm.arena, storm.speedup);

  const WorldResult world = run_fig16_world(world_duration_s);
  std::printf("fig16_world            %.1f slices/s  %.0f ev/s  (%.0f sim-s, digest %016llx)\n",
              world.slices_per_sec, world.events_per_sec, world.sim_seconds,
              static_cast<unsigned long long>(world.digest));
  std::printf("fig16_world mix        scheduled %llu  dispatched %llu  cancels %llu\n",
              static_cast<unsigned long long>(world.scheduled),
              static_cast<unsigned long long>(world.events),
              static_cast<unsigned long long>(world.cancels));

  runner::JsonWriter json;
  json.begin_object()
      .field("bench", "engine")
      .field("smoke", smoke)
      .field("reps", reps)
      .field("target_speedup", 5.0);
  json.key("single_world_hot_path").begin_object()
      .field("workload", "per event: dispatch + timer cancel + re-arm (Scheduler::arm_core_event shape)")
      .field("events", rearm_events)
      .field("legacy_events_per_sec", hot.legacy)
      .field("arena_events_per_sec", hot.arena)
      .field("speedup", hot.speedup)
      .end_object();
  json.key("schedule_dispatch").begin_object()
      .field("events", dispatch_events)
      .field("legacy_events_per_sec", chain.legacy)
      .field("arena_closure_events_per_sec", arena_chain_closure)
      .field("arena_flat_events_per_sec", chain.arena)
      .field("speedup", chain.speedup)
      .end_object();
  json.key("dispatch_interleaved").begin_object()
      .field("chains", chains)
      .field("events", dispatch_events)
      .field("legacy_events_per_sec", inter.legacy)
      .field("arena_flat_events_per_sec", inter.arena)
      .field("speedup", inter.speedup)
      .end_object();
  json.key("cancel_storm").begin_object()
      .field("rounds", storm_rounds)
      .field("legacy_ops_per_sec", storm.legacy)
      .field("arena_ops_per_sec", storm.arena)
      .field("speedup", storm.speedup)
      .end_object();
  json.key("fig16_world").begin_object()
      .field("sim_seconds", world.sim_seconds)
      .field("slices_per_sec", world.slices_per_sec)
      .field("events_per_sec", world.events_per_sec)
      .field("engine_events", world.events)
      .field("engine_scheduled", world.scheduled)
      .field("engine_cancels", world.cancels)
      .end_object();
  json.end_object();

  const std::string path = runner::bench_json_path("engine");
  if (runner::write_file(path, json.str())) {
    std::printf("machine-readable: %s\n", path.c_str());
  }

  if (smoke) {
    // Regression tripwire for the ctest tier: generous slack under the
    // measured speedups (hot path ~5.5x, chain ~3.5x, storm ~3x on the
    // reference box; see BENCH_engine.json history), but far above where
    // a reintroduced per-event allocation or hash lookup would land.
    const bool regressed = hot.speedup < 3.5 || chain.speedup < 2.0 || storm.speedup < 2.0;
    if (regressed) {
      std::fprintf(stderr,
                   "FAIL: engine hot-path speedup regressed "
                   "(hot %.2fx < 3.5x, chain %.2fx < 2.0x, or storm %.2fx < 2.0x)\n",
                   hot.speedup, chain.speedup, storm.speedup);
      return 1;
    }
  }
  return 0;
}
