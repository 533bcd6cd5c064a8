// Additional memory-manager coverage: hot floors, pressure decay,
// minfree bands, unevictable processes, writeback interleaving and the
// OOM-killer escalation path.
#include <gtest/gtest.h>

#include "mem/memory_manager.hpp"
#include "trace/analysis.hpp"

namespace mvqoe::mem {
namespace {

using sim::msec;
using sim::sec;

MemoryConfig tight_config() {
  MemoryConfig config;
  config.total = pages_from_mb(256);
  config.kernel_reserved = pages_from_mb(64);
  config.zram_capacity = pages_from_mb(64);
  config.watermark_min = pages_from_mb(4);
  config.watermark_low = pages_from_mb(12);
  config.watermark_high = pages_from_mb(20);
  config.minfree_cached = pages_from_mb(28);
  config.minfree_service = pages_from_mb(18);
  config.minfree_perceptible = pages_from_mb(12);
  config.minfree_foreground = pages_from_mb(6);
  return config;
}

TEST(MemEdge, HotPagesResistCompression) {
  sim::Engine engine;
  MemoryManager manager(engine, tight_config());
  manager.register_process(1, "fg", OomAdj::kForeground);
  manager.register_process(2, "protected", OomAdj::kCached);
  manager.registry().set_killable(2, false);
  manager.alloc_anon(2, pages_from_mb(60), 0, nullptr);
  manager.set_hot_pages(2, pages_from_mb(60));  // everything hot

  manager.alloc_anon(1, pages_from_mb(120), 0, [](bool) {});
  engine.run_until(sec(5));
  // The protected process's pages never went to zram.
  const auto* process = manager.registry().find(2);
  ASSERT_NE(process, nullptr);
  EXPECT_EQ(process->anon_swapped, 0);
}

TEST(MemEdge, HotFloorClampsToProcessSize) {
  sim::Engine engine;
  MemoryManager manager(engine, tight_config());
  manager.register_process(1, "p", OomAdj::kForeground);
  manager.alloc_anon(1, pages_from_mb(10), 0, nullptr);
  manager.set_hot_pages(1, pages_from_mb(500));  // absurd request
  EXPECT_EQ(manager.registry().find(1)->hot_pages, pages_from_mb(10));
  manager.set_hot_pages(1, -5);
  EXPECT_EQ(manager.registry().find(1)->hot_pages, 0);
}

TEST(MemEdge, UnevictableProcessExcludedFromReclaimEntirely) {
  sim::Engine engine;
  MemoryManager manager(engine, tight_config());
  manager.register_process(1, "fg", OomAdj::kForeground);
  manager.register_process(2, "pinned", OomAdj::kCached);
  manager.registry().set_killable(2, false);
  manager.registry().set_unevictable(2, true);
  manager.alloc_anon(2, pages_from_mb(60), 0, nullptr);
  // hot_pages left at 0: only the unevictable flag protects it.
  manager.alloc_anon(1, pages_from_mb(120), 0, [](bool) {});
  engine.run_until(sec(5));
  EXPECT_EQ(manager.registry().find(2)->anon_swapped, 0);
}

TEST(MemEdge, PressureDecaysAfterScanningStops) {
  sim::Engine engine;
  MemoryManager manager(engine, tight_config());
  manager.register_process(1, "fg", OomAdj::kForeground);
  manager.registry().set_killable(1, false);
  manager.set_hot_pages(1, 0);
  // Exhaust memory so P saturates.
  manager.alloc_anon(1, pages_from_mb(400), 0, [](bool) {});
  const double peak = manager.pressure_P();
  EXPECT_GT(peak, 50.0);
  // Free everything: reclaim stops; P must decay over time.
  manager.free_anon(1, pages_from_mb(400));
  engine.run_until(engine.now() + sec(10));
  EXPECT_LT(manager.pressure_P(), peak / 4.0);
}

TEST(MemEdge, MinfreeBandsEscalateWithDepth) {
  sim::Engine engine;
  MemoryConfig config = tight_config();
  MemoryManager manager(engine, config);
  manager.register_process(1, "driver", OomAdj::kForeground);
  manager.registry().set_killable(1, false);
  manager.registry().set_unevictable(1, true);
  std::vector<int> kill_order;
  const auto record_kill = [&kill_order](ProcessId pid) {
    return [&kill_order, pid] { kill_order.push_back(static_cast<int>(pid)); };
  };
  manager.register_process(10, "cached", OomAdj::kCached, record_kill(10));
  manager.register_process(11, "svc", OomAdj::kService, record_kill(11));
  manager.register_process(12, "perceptible", OomAdj::kPerceptible, record_kill(12));
  manager.alloc_anon(10, pages_from_mb(8), 0, nullptr);
  manager.alloc_anon(11, pages_from_mb(8), 0, nullptr);
  manager.alloc_anon(12, pages_from_mb(8), 0, nullptr);

  // Drive available memory down step by step; victims must die in
  // cached -> service -> perceptible order.
  for (int i = 0; i < 60 && kill_order.size() < 3; ++i) {
    manager.alloc_anon(1, pages_from_mb(3), 0, [](bool) {});
    engine.run_until(engine.now() + sec(1));
  }
  ASSERT_EQ(kill_order.size(), 3u);
  EXPECT_EQ(kill_order[0], 10);
  EXPECT_EQ(kill_order[1], 11);
  EXPECT_EQ(kill_order[2], 12);
}

TEST(MemEdge, DirtyWritebackInterleavesWithCompression) {
  sim::Engine engine;
  trace::Tracer tracer;
  sched::SchedulerConfig sched_config;
  sched_config.cores = std::vector<sched::CoreConfig>(2, sched::CoreConfig{1.0});
  sched::Scheduler scheduler(engine, tracer, sched_config);
  storage::StorageDevice storage(engine, scheduler, storage::StorageConfig{});
  MemoryManager manager(engine, tight_config(), scheduler, storage, tracer);

  manager.register_process(1, "fg", OomAdj::kForeground);
  manager.registry().set_killable(1, false);
  manager.dirty_file(pages_from_mb(24));
  // Demand past free + zram capacity: once compression saturates, reclaim
  // must write the dirty pages back.
  manager.alloc_anon(1, pages_from_mb(280), 0, [](bool) {});
  engine.run_until(sec(30));
  // Both mechanisms ran: zram grew AND dirty pages were written back.
  EXPECT_GT(manager.vmstat().pswpout, 0u);
  EXPECT_GT(manager.vmstat().pgpgout, 0u);
  EXPECT_GT(storage.counters().writes, 0u);
}

TEST(MemEdge, OomKillerEscalatesToForegroundWhenNothingElseLeft) {
  sim::Engine engine;
  trace::Tracer tracer;
  sched::SchedulerConfig sched_config;
  sched_config.cores = {sched::CoreConfig{1.0}};
  sched::Scheduler scheduler(engine, tracer, sched_config);
  storage::StorageDevice storage(engine, scheduler, storage::StorageConfig{});
  MemoryManager manager(engine, tight_config(), scheduler, storage, tracer);

  bool foreground_killed = false;
  manager.register_process(1, "fg", OomAdj::kForeground, [&] { foreground_killed = true; });
  manager.set_hot_pages(1, 0);
  // No other processes at all: a parked allocation can only be satisfied
  // by killing the allocator itself.
  manager.alloc_anon(1, pages_from_mb(100), 0, nullptr);
  engine.run_until(sec(1));
  manager.set_hot_pages(1, pages_from_mb(100));  // pin so reclaim cannot help
  manager.alloc_anon(1, pages_from_mb(200), 0, [](bool) {});
  engine.run_until(sec(30));
  EXPECT_TRUE(foreground_killed);
}

TEST(MemEdge, TrimSignalCountsMatchTransitions) {
  sim::Engine engine;
  MemoryManager manager(engine, tight_config());
  // Listeners hear every transition (including back to Normal); the
  // vmstat counters track only the non-Normal onTrimMemory deliveries.
  int deliveries = 0;
  manager.subscribe_trim([&deliveries](PressureLevel level) {
    if (level != PressureLevel::Normal) ++deliveries;
  });
  manager.register_process(1, "fg", OomAdj::kForeground);
  for (ProcessId pid = 10; pid < 18; ++pid) {
    manager.register_process(pid, "cached", OomAdj::kCached);
    manager.alloc_anon(pid, pages_from_mb(6), 0, nullptr);
  }
  manager.alloc_anon(1, pages_from_mb(150), 0, [](bool) {});
  engine.run_until(sec(5));
  const auto& vm = manager.vmstat();
  const auto counted = vm.trim_signals[1] + vm.trim_signals[2] + vm.trim_signals[3];
  EXPECT_EQ(static_cast<std::uint64_t>(deliveries), counted);
  EXPECT_GT(deliveries, 0);
}

TEST(MemEdge, MapFileRaisesWorkingSetAndUnmapLowersIt) {
  sim::Engine engine;
  MemoryManager manager(engine, tight_config());
  manager.register_process(1, "app", OomAdj::kForeground);
  manager.map_file(1, pages_from_mb(10), 0, nullptr);
  EXPECT_EQ(manager.registry().find(1)->file_working_set, pages_from_mb(10));
  manager.unmap_file(1, pages_from_mb(4));
  EXPECT_EQ(manager.registry().find(1)->file_working_set, pages_from_mb(6));
  EXPECT_EQ(manager.registry().find(1)->file_resident, pages_from_mb(6));
}

TEST(MemEdge, TouchOnDeadProcessFailsGracefully) {
  sim::Engine engine;
  MemoryManager manager(engine, tight_config());
  bool called = false;
  bool ok = true;
  manager.touch_working_set(404, 0, 100, 100, [&](bool success) {
    called = true;
    ok = success;
  });
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
}

TEST(MemEdge, FreeMoreThanOwnedClampsSafely) {
  sim::Engine engine;
  MemoryManager manager(engine, tight_config());
  manager.register_process(1, "app", OomAdj::kForeground);
  manager.alloc_anon(1, pages_from_mb(10), 0, nullptr);
  manager.free_anon(1, pages_from_mb(999));
  EXPECT_EQ(manager.registry().find(1)->anon_resident, 0);
  EXPECT_EQ(manager.anon_pages(), 0);
  EXPECT_GE(manager.free_pages(), 0);
}

}  // namespace
}  // namespace mvqoe::mem
