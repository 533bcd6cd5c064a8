// Micro-benchmarks of the simulator's hot paths (google-benchmark):
// RNG, event queue, scheduler context switching, reclaim batches, victim
// selection, and an end-to-end per-simulated-second video cost.
#include <benchmark/benchmark.h>

#include "fleet/device_session.hpp"
#include "scenario/driver.hpp"
#include "stats/rng.hpp"

namespace {

using namespace mvqoe;

void BM_RngNext(benchmark::State& state) {
  stats::Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_RngNormal(benchmark::State& state) {
  stats::Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal());
}
BENCHMARK(BM_RngNormal);

void BM_EngineScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_at(sim::usec(i), [] {});
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleAndRun);

void BM_SchedulerContextSwitches(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    trace::Tracer tracer;
    sched::SchedulerConfig config;
    config.cores = {sched::CoreConfig{1.0}};
    sched::Scheduler scheduler(engine, tracer, config);
    sched::ThreadSpec spec;
    spec.name = "a";
    spec.pid = 1;
    const auto a = scheduler.create_thread(spec);
    spec.name = "b";
    const auto b = scheduler.create_thread(spec);
    std::function<void()> loop_a = [&] { scheduler.run_work(a, 1000.0, loop_a); };
    std::function<void()> loop_b = [&] { scheduler.run_work(b, 1000.0, loop_b); };
    loop_a();
    loop_b();
    engine.run_until(sim::sec(1));
  }
  state.SetLabel("two threads sharing one core for 1 simulated second");
}
BENCHMARK(BM_SchedulerContextSwitches);

void BM_ReclaimBatchPressure(benchmark::State& state) {
  sim::Engine engine;
  mem::MemoryConfig config;
  config.total = mem::pages_from_mb(1024);
  mem::MemoryManager manager(engine, config);
  manager.register_process(1, "fg", mem::OomAdj::kForeground);
  for (mem::ProcessId pid = 10; pid < 20; ++pid) {
    manager.register_process(pid, "cached", mem::OomAdj::kCached);
    manager.alloc_anon(pid, mem::pages_from_mb(20), 0, nullptr);
  }
  for (auto _ : state) {
    manager.alloc_anon(1, mem::pages_from_mb(4), 0, nullptr);
    manager.free_anon(1, mem::pages_from_mb(4));
  }
  state.SetLabel("alloc/free cycle with reclaim pressure");
}
BENCHMARK(BM_ReclaimBatchPressure);

void BM_VictimSelection(benchmark::State& state) {
  mem::ProcessRegistry registry;
  for (mem::ProcessId pid = 1; pid <= 64; ++pid) {
    auto& process = registry.add(pid, "proc" + std::to_string(pid),
                                 pid % 2 == 0 ? mem::OomAdj::kCached : mem::OomAdj::kService);
    process.anon_resident = pid * 100;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.pick_victim(mem::OomAdj::kService));
  }
}
BENCHMARK(BM_VictimSelection);

void BM_VideoSecondSimulated(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(scenario::run_scenario(
        scenario::single_video("fig11", 480, 30, 10, mem::PressureLevel::Normal, 1)));
  }
  state.SetLabel("full 10-simulated-second 480p30 session on Nexus 5");
}
BENCHMARK(BM_VideoSecondSimulated);

void BM_StudyDeviceHour(benchmark::State& state) {
  auto population = study::generate_population(1, 7);
  population[0].ram_mb = 2048;
  population[0].interactive_hours = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet::simulate_study_device(population[0], 3));
  }
  state.SetLabel("one simulated interactive hour of the field study");
}
BENCHMARK(BM_StudyDeviceHour);

}  // namespace
