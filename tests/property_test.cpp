// Property-based / parameterized sweeps over the simulator's invariants,
// driven through the src/check scenario generator: the sampled worlds
// (device topologies, memory configs, op-storm seeds) come from
// generate_scenario() streams, so the property surface tracks the same
// distribution the fuzzer explores. The default tier samples 200+
// scenarios (GeneratedScenarioProperties alone covers 200 seeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "check/generator.hpp"
#include "closure.hpp"
#include "mem/memory_manager.hpp"
#include "qoe/mos.hpp"
#include "sched/scheduler.hpp"
#include "scenario/spec.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "trace/analysis.hpp"
#include "video/abr_policy.hpp"
#include "video/ladder.hpp"

namespace mvqoe {
namespace {

/// Campaign seed for every generator stream in this file.
constexpr std::uint64_t kPropertyBase = 0x50524F50ULL;  // "PROP"

scenario::ScenarioSpec sampled_scenario(int index) {
  return check::generate_scenario(stats::derive_seed(kPropertyBase, static_cast<std::uint64_t>(index)));
}

std::string serialized(const scenario::ScenarioSpec& scen) {
  snapshot::ByteWriter w;
  scenario::save_scenario(w, scen);
  return std::string(w.view());
}

// ---------- Generator: structural properties over 200 sampled scenarios -----

class GeneratedScenarioProperties : public ::testing::TestWithParam<int> {};

TEST_P(GeneratedScenarioProperties, DeterministicAndSerializable) {
  const scenario::ScenarioSpec a = sampled_scenario(GetParam());
  const scenario::ScenarioSpec b = sampled_scenario(GetParam());
  // Same seed -> byte-identical spec; the fuzzer's reproducibility story
  // rests on this.
  const std::string bytes = serialized(a);
  ASSERT_EQ(bytes, serialized(b));
  // Round-trips through the SCEN section losslessly.
  snapshot::ByteReader r(bytes);
  const scenario::ScenarioSpec loaded = scenario::load_scenario(r);
  EXPECT_EQ(bytes, serialized(loaded));
}

TEST_P(GeneratedScenarioProperties, ResolvesDeviceAndPlatform) {
  const scenario::ScenarioSpec scen = sampled_scenario(GetParam());
  const core::DeviceProfile device = device_for(scen);
  EXPECT_GT(device.ram_mb, 0);
  EXPECT_FALSE(device.scheduler.cores.empty());
  for (std::size_t i = 0; i < scenario::video_count(scen); ++i) {
    (void)scenario::platform_for(scen, scenario::video_spec(scen, i));
  }
}

TEST_P(GeneratedScenarioProperties, FieldsWithinGeneratorBounds) {
  const check::GeneratorConfig config;
  const scenario::ScenarioSpec scen = sampled_scenario(GetParam());
  const std::size_t videos = scenario::video_count(scen);
  ASSERT_GE(videos, 1u);
  ASSERT_LE(videos, static_cast<std::size_t>(config.max_videos));
  const auto ladder = video::BitrateLadder::youtube();
  for (std::size_t i = 0; i < videos; ++i) {
    const scenario::VideoWorkloadSpec& video = scenario::video_spec(scen, i);
    EXPECT_GE(video.duration_s, config.min_duration_s);
    EXPECT_LE(video.duration_s, config.max_duration_s);
    // Every sampled cell is a real ladder rung.
    EXPECT_TRUE(ladder.find(video.height, video.fps).has_value()) << video.label;
    // Runtime-only hooks must never be sampled (specs stay serializable).
    EXPECT_EQ(video.abr, nullptr);
    EXPECT_FALSE(video.recovery.has_value());
  }
  EXPECT_FALSE(scen.device_override.has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedScenarioProperties, ::testing::Range(0, 200));

// ---------- Scheduler: work conservation across topologies ------------------

/// All submitted work completes, never faster than the core capacity
/// allows and never slower than strictly serial on the slowest core.
void expect_work_conserving(sched::SchedulerConfig config, int threads) {
  sim::Engine engine;
  trace::Tracer tracer;
  config.context_switch_cost_refus = 0.0;
  config.migration_cost_refus = 0.0;
  double capacity = 0.0;
  double min_freq = config.cores.front().freq_ghz;
  for (const sched::CoreConfig& core : config.cores) {
    capacity += core.freq_ghz;
    min_freq = std::min(min_freq, core.freq_ghz);
  }
  sched::Scheduler scheduler(engine, tracer, config);

  const double work_each = 20'000.0;  // 20ms reference work per thread
  int completed = 0;
  testkit::Closure count{[&completed] { ++completed; }};
  for (int i = 0; i < threads; ++i) {
    sched::ThreadSpec spec;
    spec.name = "worker" + std::to_string(i);
    spec.pid = 100;
    const auto tid = scheduler.create_thread(spec);
    scheduler.run_work(tid, work_each, &testkit::Closure::run, &count);
  }
  engine.run();
  EXPECT_EQ(completed, threads);
  const double total_work = work_each * threads;
  const double ideal_us = total_work / capacity;       // perfect speedup
  const double serial_us = total_work / min_freq;      // one slow core
  const double wall = static_cast<double>(engine.now());
  EXPECT_GE(wall + 1.0, std::max(ideal_us, work_each / min_freq));
  EXPECT_LE(wall, serial_us + 1000.0);
}

class SchedWorkConservation : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(SchedWorkConservation, AllSubmittedWorkCompletesAtCapacityRate) {
  const auto [cores, freq, threads] = GetParam();
  sched::SchedulerConfig config;
  config.cores = std::vector<sched::CoreConfig>(static_cast<std::size_t>(cores),
                                                sched::CoreConfig{freq});
  expect_work_conserving(config, threads);
}

INSTANTIATE_TEST_SUITE_P(Topologies, SchedWorkConservation,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(0.5, 1.0, 2.33),
                                            ::testing::Values(1, 3, 8, 16)));

/// The same property on the exact (possibly heterogeneous) topologies of
/// the devices the generator samples — Nokia 1, Nexus 5, Nexus 6P.
class SchedWorkConservationSampled : public ::testing::TestWithParam<int> {};

TEST_P(SchedWorkConservationSampled, SampledDeviceTopologyIsWorkConserving) {
  const scenario::ScenarioSpec scen = sampled_scenario(1000 + GetParam());
  const core::DeviceProfile device = device_for(scen);
  const int threads = 2 + 3 * static_cast<int>(scenario::video_count(scen));
  expect_work_conserving(device.scheduler, threads);
}

INSTANTIATE_TEST_SUITE_P(Worlds, SchedWorkConservationSampled, ::testing::Range(0, 8));

// ---------- Scheduler: fair share proportional to thread count --------------

class SchedFairness : public ::testing::TestWithParam<int> {};

TEST_P(SchedFairness, EqualWeightThreadsGetEqualCpu) {
  const int threads = GetParam();
  sim::Engine engine;
  trace::Tracer tracer;
  sched::SchedulerConfig config;
  config.cores = {sched::CoreConfig{1.0}};
  config.context_switch_cost_refus = 0.0;
  sched::Scheduler scheduler(engine, tracer, config);

  std::vector<sched::ThreadId> tids;
  std::vector<testkit::Closure> loops(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    sched::ThreadSpec spec;
    spec.name = "t" + std::to_string(i);
    spec.pid = 1;
    tids.push_back(scheduler.create_thread(spec));
  }
  for (int i = 0; i < threads; ++i) {
    const auto tid = tids[static_cast<std::size_t>(i)];
    auto& loop = loops[static_cast<std::size_t>(i)];
    loop.body = [&scheduler, tid, &loop] {
      scheduler.run_work(tid, 2000.0, &testkit::Closure::run, &loop);
    };
    loop.body();
  }
  engine.run_until(sim::sec(3));
  tracer.finalize(engine.now());

  const double expected = 3.0 / threads;
  for (const auto tid : tids) {
    const auto times = trace::state_times(tracer, {tid});
    EXPECT_NEAR(times.running, expected, expected * 0.25)
        << "thread " << tid << " of " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, SchedFairness, ::testing::Values(2, 3, 5, 8));

// ---------- Memory manager: invariants under random operation storms --------

/// Storms run on the memory config of the device a generated scenario
/// resolves to, seeded from the scenario's own stream.
class MemOpStorm : public ::testing::TestWithParam<int> {};

TEST_P(MemOpStorm, PoolInvariantsHoldUnderRandomOps) {
  const scenario::ScenarioSpec scen = sampled_scenario(2000 + GetParam());
  const core::DeviceProfile device = device_for(scen);
  sim::Engine engine;
  const mem::MemoryConfig config = device.memory;
  mem::MemoryManager manager(engine, config);
  stats::Rng rng(stats::derive_seed(scen.seed, 0x53544F52ULL));  // "STOR"

  std::vector<mem::ProcessId> live;
  mem::ProcessId next_pid = 100;
  for (int op = 0; op < 600; ++op) {
    engine.run_until(engine.now() + sim::msec(50));
    const double dice = rng.uniform();
    if (dice < 0.3 || live.empty()) {
      const mem::ProcessId pid = next_pid++;
      manager.register_process(pid, "p" + std::to_string(pid),
                               rng.bernoulli(0.5) ? mem::OomAdj::kCached
                                                  : mem::OomAdj::kService);
      live.push_back(pid);
      manager.alloc_anon(pid, rng.uniform_int(100, 8000), 0, nullptr);
    } else {
      const auto index =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(live.size()) - 1));
      const mem::ProcessId pid = live[index];
      if (!manager.registry().alive(pid)) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
        continue;
      }
      const double action = rng.uniform();
      if (action < 0.35) {
        manager.alloc_anon(pid, rng.uniform_int(100, 6000), 0, nullptr);
      } else if (action < 0.55) {
        manager.free_anon(pid, rng.uniform_int(100, 4000));
      } else if (action < 0.70) {
        manager.map_file(pid, rng.uniform_int(50, 1500), 0, nullptr);
      } else if (action < 0.85) {
        const mem::Pages anon_touch = rng.uniform_int(100, 4000);
        const mem::Pages file_touch = rng.uniform_int(0, 800);
        manager.touch_working_set(pid, 0, anon_touch, file_touch, nullptr);
      } else {
        manager.exit_process(pid);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
      }
    }
    // Invariants after every operation (the same ones the fuzz oracles
    // enforce at slice granularity):
    ASSERT_GE(manager.free_pages(), 0);
    ASSERT_GE(manager.anon_pages(), 0);
    ASSERT_GE(manager.file_pages(), 0);
    ASSERT_GE(manager.zram_stored(), 0);
    ASSERT_LE(manager.zram_stored(), config.zram_capacity);
    ASSERT_LE(manager.available_pages(), config.total - config.kernel_reserved);
    ASSERT_TRUE(manager.check_conservation().ok) << manager.check_conservation().detail;
    const double pressure = manager.pressure_P();
    ASSERT_GE(pressure, 0.0);
    ASSERT_LE(pressure, 100.0);
  }
  engine.run();

  // Tear everything down: pools must return to zero.
  for (const auto pid : live) manager.exit_process(pid);
  engine.run();
  EXPECT_EQ(manager.anon_pages(), 0);
  EXPECT_EQ(manager.zram_stored(), 0);
}

INSTANTIATE_TEST_SUITE_P(Worlds, MemOpStorm, ::testing::Range(0, 8));

// ---------- Ladder: structural properties over the whole grid ----------------

class LadderProperties : public ::testing::TestWithParam<int> {};

TEST_P(LadderProperties, BitrateMonotoneInResolutionPerFps) {
  const int fps = GetParam();
  const auto ladder = video::BitrateLadder::youtube();
  int previous = 0;
  for (const int height : ladder.heights()) {
    const auto rung = ladder.find(height, fps);
    ASSERT_TRUE(rung.has_value());
    EXPECT_GT(rung->bitrate_kbps, previous);
    previous = rung->bitrate_kbps;
  }
}

TEST_P(LadderProperties, StepDownUpAreInverseInTheInterior) {
  const int fps = GetParam();
  const auto ladder = video::BitrateLadder::youtube();
  for (const int height : ladder.heights()) {
    const auto rung = *ladder.find(height, fps);
    const auto down = ladder.step_down(rung);
    if (down.has_value()) {
      const auto back = ladder.step_up(*down);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, rung);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FrameRates, LadderProperties, ::testing::Values(24, 30, 48, 60));

// ---------- ABR: safety properties over a context grid -----------------------

class AbrSafety : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(AbrSafety, MemoryAwareNeverExceedsLevelCaps) {
  const auto [level, drops, fps] = GetParam();
  const auto ladder = video::BitrateLadder::youtube();
  video::MemoryAwareConfig config;
  video::MemoryAwareAbr policy(std::make_unique<video::RateBasedAbr>(fps), config);

  video::AbrContext context;
  context.ladder = &ladder;
  context.current = *ladder.find(1080, fps);
  context.buffer_seconds = 40.0;
  context.throughput_mbps = 100.0;
  context.pressure = static_cast<mem::PressureLevel>(level);
  context.recent_drop_rate = drops;

  const auto rung = policy.choose(context);
  EXPECT_LE(rung.fps, config.max_fps[level]);
  EXPECT_LE(rung.resolution.height, config.max_height[level]);
  // The chosen rung must exist on the ladder.
  EXPECT_TRUE(ladder.find(rung.resolution.height, rung.fps).has_value());
}

INSTANTIATE_TEST_SUITE_P(Grid, AbrSafety,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(0.0, 0.05, 0.2, 0.6),
                                            ::testing::Values(30, 60)));

// ---------- MOS model: monotonicity over the drop-rate grid ------------------

class MosMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(MosMonotonicity, WorseClipNeverRatesHigherOnAverage) {
  const double reference = GetParam();
  const qoe::MosModel model;
  double previous_mean = 6.0;
  for (double degraded = reference; degraded <= 0.9; degraded += 0.1) {
    const auto survey = qoe::run_dmos_survey(model, reference, degraded, 400, 7);
    EXPECT_LE(survey.mean(), previous_mean + 0.05)
        << "reference " << reference << " degraded " << degraded;
    previous_mean = survey.mean();
  }
}

INSTANTIATE_TEST_SUITE_P(References, MosMonotonicity, ::testing::Values(0.0, 0.03, 0.1));

// ---------- RNG: distribution sanity over seeds -------------------------------

class RngDistribution : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngDistribution, UniformMomentsWithinTolerance) {
  stats::Rng rng(GetParam());
  stats::Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.uniform());
  EXPECT_NEAR(acc.mean(), 0.5, 0.02);
  EXPECT_NEAR(acc.variance(), 1.0 / 12.0, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngDistribution,
                         ::testing::Values(1u, 42u, 1234567u, 0xdeadbeefu));

}  // namespace
}  // namespace mvqoe
