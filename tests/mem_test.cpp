#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>

#include "mem/memory_manager.hpp"
#include "trace/analysis.hpp"

// Every plain operator new in this binary is counted, so a test can
// bound the heap allocations of a stretch of simulation. All non-aligned
// forms are replaced together so each allocation is freed by its own
// family (sanitizer builds check that pairing).
namespace {
std::uint64_t g_heap_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_heap_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
// Out of line so the compiler does not see free() paired with new.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }

namespace mvqoe::mem {
namespace {

using sim::msec;
using sim::sec;

MemoryConfig small_config() {
  MemoryConfig config;
  config.total = pages_from_mb(256);
  config.kernel_reserved = pages_from_mb(64);
  config.zram_capacity = pages_from_mb(96);
  config.watermark_min = pages_from_mb(4);
  config.watermark_low = pages_from_mb(12);
  config.watermark_high = pages_from_mb(20);
  // Scale the lmkd minfree levels down with the small RAM so these tests
  // exercise reclaim (zram, writeback, direct reclaim) before lmkd fires.
  config.minfree_cached = pages_from_mb(10);
  config.minfree_service = pages_from_mb(7);
  config.minfree_perceptible = pages_from_mb(5);
  config.minfree_foreground = pages_from_mb(3);
  return config;
}

// -------- Registry ---------------------------------------------------------

// P's decay memo returns what std::pow returns, bit for bit, whatever
// the order of reads: fresh ages, repeats, and ages that evict each other
// from one slot of the table.
TEST(PressureDecay, MemoMatchesStdPowBitForBit) {
  const auto reference = [](sim::Time age) {
    return std::bit_cast<std::uint64_t>(std::pow(0.5, sim::to_seconds(age) / 1.5));
  };
  const PressureDecay memo;
  const auto check = [&](sim::Time age) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(memo.factor(age)), reference(age)) << "age " << age;
  };

  std::vector<sim::Time> same_slot;
  for (sim::Time age = 1; same_slot.size() < 3; ++age) {
    if (PressureDecay::slot(age) == PressureDecay::slot(sim::msec(3))) same_slot.push_back(age);
  }
  ASSERT_EQ(PressureDecay::slot(same_slot[0]), PressureDecay::slot(same_slot[2]));
  for (const std::size_t i : {0, 1, 0, 2, 1, 1, 0, 2, 2, 0}) check(same_slot[i]);

  check(0);  // an empty slot already holds pow(0.5, 0)
  std::uint64_t state = 12345;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    // Mostly a few recurring batch spacings, sometimes a fresh age up to
    // about an hour, so slots both hit and get overwritten.
    const sim::Time age = (state >> 60) < 12 ? sim::usec(250) * static_cast<sim::Time>(1 + (state >> 61))
                                             : static_cast<sim::Time>(1 + (state >> 32) % sim::hours(1));
    check(age);
  }
}

TEST(ProcessRegistry, AddFindRemove) {
  ProcessRegistry registry;
  registry.add(100, "app", OomAdj::kCached);
  ASSERT_NE(registry.find(100), nullptr);
  EXPECT_TRUE(registry.alive(100));
  registry.move_pages(*registry.find(100), {.anon_resident = 50, .file_resident = 20});
  const auto freed = registry.remove(100);
  EXPECT_EQ(freed.anon, 50);
  EXPECT_EQ(freed.file, 20);
  EXPECT_FALSE(registry.alive(100));
  EXPECT_EQ(registry.find(100), nullptr);
}

TEST(ProcessRegistry, ReRegisterDeadPid) {
  ProcessRegistry registry;
  registry.add(100, "a", OomAdj::kCached);
  registry.remove(100);
  registry.add(100, "b", OomAdj::kForeground);
  ASSERT_NE(registry.find(100), nullptr);
  EXPECT_EQ(registry.find(100)->name, "b");
}

TEST(ProcessRegistry, CachedCountCountsOnlyCachedBand) {
  ProcessRegistry registry;
  registry.add(1, "fg", OomAdj::kForeground);
  registry.add(2, "svc", OomAdj::kService);
  registry.add(3, "c1", OomAdj::kCached);
  registry.add(4, "c2", OomAdj::kCached + 50);
  EXPECT_EQ(registry.cached_count(), 2);
  registry.remove(3);
  EXPECT_EQ(registry.cached_count(), 1);
}

// The cached count is kept, not counted: it must follow every way a
// process enters or leaves the cached band.
TEST(ProcessRegistry, CachedCountFollowsAddRemoveRebandAndReAdd) {
  ProcessRegistry registry;
  registry.add(1, "fg", OomAdj::kForeground);
  registry.add(2, "c1", OomAdj::kCached);
  registry.add(3, "c2", OomAdj::kCached + 99);
  EXPECT_EQ(registry.cached_count(), 2);
  registry.set_oom_adj(1, OomAdj::kCached);  // up across the boundary
  EXPECT_EQ(registry.cached_count(), 3);
  registry.set_oom_adj(2, OomAdj::kCached - 1);  // down across it
  EXPECT_EQ(registry.cached_count(), 2);
  registry.set_oom_adj(3, OomAdj::kCached + 1);  // within the band
  EXPECT_EQ(registry.cached_count(), 2);
  registry.remove(3);
  EXPECT_EQ(registry.cached_count(), 1);
  registry.remove(3);  // already dead: no change
  registry.set_oom_adj(3, OomAdj::kForeground);  // dead: ignored
  EXPECT_EQ(registry.cached_count(), 1);
  registry.add(3, "c2-again", OomAdj::kForeground);  // dead pid re-added, not cached
  EXPECT_EQ(registry.cached_count(), 1);
  registry.remove(1);
  EXPECT_EQ(registry.cached_count(), 0);
  registry.add(1, "fg-again", OomAdj::kCached);  // dead pid re-added into the band
  EXPECT_EQ(registry.cached_count(), 1);
  registry.set_unevictable(1, true);  // pinned processes still count
  EXPECT_EQ(registry.cached_count(), 1);
  EXPECT_EQ(registry.stale_sum(), "");
}

TEST(ProcessRegistry, PickVictimHighestAdjColdestFirst) {
  ProcessRegistry registry;
  registry.add(1, "fg", OomAdj::kForeground);
  registry.add(2, "old_cached", OomAdj::kCached);
  registry.add(3, "new_cached", OomAdj::kCached);
  registry.touch(3);
  const auto victim = registry.pick_victim(OomAdj::kService);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 2u);  // same adj, colder LRU
}

TEST(ProcessRegistry, PickVictimRespectsMinAdj) {
  ProcessRegistry registry;
  registry.add(1, "fg", OomAdj::kForeground);
  registry.add(2, "svc", OomAdj::kService);
  EXPECT_FALSE(registry.pick_victim(OomAdj::kCached).has_value());
  const auto victim = registry.pick_victim(OomAdj::kService);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 2u);
  // At foreground eligibility, the service still outranks the foreground.
  EXPECT_EQ(*registry.pick_victim(OomAdj::kForeground), 2u);
}

TEST(ProcessRegistry, UnkillableProcessNeverPicked) {
  ProcessRegistry registry;
  registry.add(1, "inducer", OomAdj::kCached);
  registry.set_killable(1, false);
  EXPECT_FALSE(registry.pick_victim(OomAdj::kForeground).has_value());
}

TEST(ProcessRegistry, ReclaimOrderSortsByAdjThenLru) {
  ProcessRegistry registry;
  registry.add(1, "fg", OomAdj::kForeground);
  registry.add(2, "cold_cached", OomAdj::kCached);
  registry.add(3, "warm_cached", OomAdj::kCached);
  registry.touch(3);
  const auto order = registry.reclaim_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0]->pid, 2u);
  EXPECT_EQ(order[1]->pid, 3u);
  EXPECT_EQ(order[2]->pid, 1u);
}

TEST(ProcessRegistry, PssIsAnonPlusFile) {
  ProcessMem process;
  process.anon_resident = 100;
  process.file_resident = 30;
  process.anon_swapped = 999;  // swapped pages are not resident
  EXPECT_EQ(pss_pages(process), 130);
}

// -------- Immediate-mode MemoryManager --------------------------------------

struct ImmediateFixture {
  sim::Engine engine;
  MemoryManager manager{engine, small_config()};
};

TEST(MemoryManagerImmediate, FreshSystemHasExpectedFreePages) {
  ImmediateFixture fx;
  EXPECT_EQ(fx.manager.free_pages(), pages_from_mb(256 - 64));
  EXPECT_EQ(fx.manager.available_pages(), fx.manager.free_pages());
  EXPECT_EQ(fx.manager.level(), PressureLevel::Normal);
}

TEST(MemoryManagerImmediate, AllocAndFreeRoundTrip) {
  ImmediateFixture fx;
  fx.manager.register_process(100, "app", OomAdj::kForeground);
  bool ok = false;
  fx.manager.alloc_anon(100, pages_from_mb(50), 0, [&](bool success) { ok = success; });
  EXPECT_TRUE(ok);
  EXPECT_EQ(fx.manager.anon_pages(), pages_from_mb(50));
  EXPECT_EQ(fx.manager.registry().find(100)->anon_resident, pages_from_mb(50));
  fx.manager.free_anon(100, pages_from_mb(50));
  EXPECT_EQ(fx.manager.anon_pages(), 0);
}

TEST(MemoryManagerImmediate, AllocToDeadProcessFails) {
  ImmediateFixture fx;
  bool called = false;
  bool ok = true;
  fx.manager.alloc_anon(999, 10, 0, [&](bool success) {
    called = true;
    ok = success;
  });
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
}

TEST(MemoryManagerImmediate, UtilizationGrowsWithAllocations) {
  ImmediateFixture fx;
  fx.manager.register_process(100, "app", OomAdj::kForeground);
  const double before = fx.manager.utilization();
  fx.manager.alloc_anon(100, pages_from_mb(64), 0, nullptr);
  EXPECT_GT(fx.manager.utilization(), before);
}

TEST(MemoryManagerImmediate, ReclaimCompressesColdProcessesToZram) {
  ImmediateFixture fx;
  fx.manager.register_process(100, "fg", OomAdj::kForeground);
  fx.manager.register_process(200, "cached", OomAdj::kCached);
  // Unkillable so lmkd's minfree path cannot short-circuit compression.
  fx.manager.registry().set_killable(200, false);
  fx.manager.alloc_anon(200, pages_from_mb(60), 0, nullptr);
  // Push allocations until kswapd must reclaim; the cached process's anon
  // should be compressed before the foreground's.
  fx.manager.alloc_anon(100, pages_from_mb(160), 0, nullptr);
  EXPECT_GT(fx.manager.zram_stored(), 0);
  const auto* cached = fx.manager.registry().find(200);
  const auto* fg = fx.manager.registry().find(100);
  ASSERT_NE(cached, nullptr);
  ASSERT_NE(fg, nullptr);
  EXPECT_GT(cached->anon_swapped, 0);
  EXPECT_GE(fg->anon_resident, fg->anon_swapped);  // foreground mostly resident
}

TEST(MemoryManagerImmediate, OverCommitTriggersLmkdKills) {
  ImmediateFixture fx;
  fx.manager.register_process(1, "fg", OomAdj::kForeground);
  for (ProcessId pid = 10; pid < 20; ++pid) {
    fx.manager.register_process(pid, "cached" + std::to_string(pid), OomAdj::kCached);
    fx.manager.alloc_anon(pid, pages_from_mb(10), 0, nullptr);
  }
  // Allocate far beyond RAM + zram capacity; lmkd must start killing.
  fx.manager.alloc_anon(1, pages_from_mb(400), 0, nullptr);
  fx.engine.run();
  EXPECT_GT(fx.manager.vmstat().kills_lmkd, 0u);
  EXPECT_LT(fx.manager.registry().live_count(), 11u);
}

TEST(MemoryManagerImmediate, KillFreesMemoryAndFiresCallback) {
  ImmediateFixture fx;
  bool killed = false;
  fx.manager.register_process(100, "victim", OomAdj::kCached, [&] { killed = true; });
  fx.manager.alloc_anon(100, pages_from_mb(40), 0, nullptr);
  const Pages before = fx.manager.free_pages();
  fx.manager.kill_process(100);
  fx.engine.run();  // on_kill is deferred
  EXPECT_TRUE(killed);
  EXPECT_EQ(fx.manager.free_pages(), before + pages_from_mb(40));
  EXPECT_FALSE(fx.manager.registry().alive(100));
}

TEST(MemoryManagerImmediate, TrimLevelsFollowCachedProcessCount) {
  ImmediateFixture fx;
  fx.manager.register_process(1, "fg", OomAdj::kForeground);
  // 8 cached processes with allocations.
  for (ProcessId pid = 10; pid < 18; ++pid) {
    fx.manager.register_process(pid, "cached", OomAdj::kCached);
    fx.manager.alloc_anon(pid, pages_from_mb(12), 0, nullptr);
  }
  std::vector<PressureLevel> signals;
  fx.manager.subscribe_trim([&](PressureLevel level) { signals.push_back(level); });
  // Grind memory down; as lmkd kills cached processes the trim level must
  // escalate Moderate -> Low -> Critical.
  for (int i = 0; i < 40 && fx.manager.level() != PressureLevel::Critical; ++i) {
    fx.manager.alloc_anon(1, pages_from_mb(8), 0, nullptr);
    fx.engine.run_until(fx.engine.now() + sec(1));
  }
  EXPECT_EQ(fx.manager.level(), PressureLevel::Critical);
  // Escalation order observed.
  bool saw_moderate = false;
  bool saw_critical = false;
  for (const auto level : signals) {
    if (level == PressureLevel::Moderate) saw_moderate = true;
    if (level == PressureLevel::Critical) {
      saw_critical = true;
      EXPECT_TRUE(saw_moderate);
    }
  }
  EXPECT_TRUE(saw_critical);
}

TEST(MemoryManagerImmediate, AvailableMemoryIncludesFileCache) {
  ImmediateFixture fx;
  fx.manager.register_process(100, "app", OomAdj::kForeground);
  fx.manager.map_file(100, pages_from_mb(30), 0, nullptr);
  EXPECT_EQ(fx.manager.file_pages(), pages_from_mb(30));
  EXPECT_EQ(fx.manager.available_pages(),
            fx.manager.free_pages() + pages_from_mb(30));
}

TEST(MemoryManagerImmediate, ExitProcessFreesWithoutKillCallback) {
  ImmediateFixture fx;
  bool killed = false;
  fx.manager.register_process(100, "app", OomAdj::kCached, [&] { killed = true; });
  fx.manager.alloc_anon(100, pages_from_mb(20), 0, nullptr);
  fx.manager.exit_process(100);
  fx.engine.run();
  EXPECT_FALSE(killed);
  EXPECT_FALSE(fx.manager.registry().alive(100));
  EXPECT_EQ(fx.manager.anon_pages(), 0);
}

TEST(MemoryManagerImmediate, DirtyPagesWrittenBackUnderPressure) {
  ImmediateFixture fx;
  fx.manager.register_process(100, "app", OomAdj::kForeground);
  fx.manager.registry().set_killable(100, false);
  fx.manager.dirty_file(pages_from_mb(30));
  EXPECT_EQ(fx.manager.file_pages(), pages_from_mb(30));
  // Demand more than free + zram can provide; once zram fills, reclaim
  // must write the dirty pages back (immediate mode applies it instantly).
  fx.manager.alloc_anon(100, pages_from_mb(280), 0, [](bool) {});
  EXPECT_LT(fx.manager.file_pages(), pages_from_mb(30));
  EXPECT_GT(fx.manager.vmstat().pgpgout, 0u);
}

TEST(MemoryManagerImmediate, PressurePRisesWhenNothingReclaimable) {
  ImmediateFixture fx;
  fx.manager.register_process(100, "app", OomAdj::kForeground);
  // Exhaust RAM and zram with one unkillable process: reclaim can make no
  // progress, so P must saturate high.
  fx.manager.registry().set_killable(100, false);
  fx.manager.alloc_anon(100, pages_from_mb(400), 0, nullptr);
  EXPECT_GT(fx.manager.pressure_P(), 90.0);
}

TEST(MemoryManagerImmediate, TouchWorkingSetSwapsPagesBackIn) {
  ImmediateFixture fx;
  fx.manager.register_process(100, "fg", OomAdj::kForeground);
  fx.manager.register_process(200, "cached", OomAdj::kCached);
  fx.manager.registry().set_killable(200, false);
  fx.manager.alloc_anon(200, pages_from_mb(80), 0, nullptr);
  fx.manager.alloc_anon(100, pages_from_mb(130), 0, nullptr);
  const auto* cached = fx.manager.registry().find(200);
  ASSERT_NE(cached, nullptr);
  ASSERT_GT(cached->anon_swapped, 0);
  const Pages swapped_before = cached->anon_swapped;
  // Release the foreground hog so the faulted pages have room to return.
  fx.manager.free_anon(100, pages_from_mb(100));
  bool done = false;
  fx.manager.touch_working_set(200, 0, pages_from_mb(80), 0, [&](bool ok) { done = ok; });
  fx.engine.run();
  EXPECT_TRUE(done);
  EXPECT_LT(fx.manager.registry().find(200)->anon_swapped, swapped_before);
  EXPECT_GT(fx.manager.vmstat().pswpin, 0u);
}

// A reclaim batch allocates nothing: the manager refills one plan, the
// planner reads kept sums and the cached reclaim order. A long
// immediate-mode reclaim (small batches, one allocation call) stays far
// below one heap allocation per 100 batches.
TEST(MemoryManagerImmediate, ReclaimBatchesAllocateLessThanOncePerHundred) {
  sim::Engine engine;
  MemoryConfig config = small_config();
  config.kswapd_batch = 2;
  MemoryManager manager(engine, config);
  manager.register_process(100, "app", OomAdj::kForeground);
  manager.alloc_anon(100, pages_from_mb(181), 0, nullptr);  // warm-up: reclaims once
  manager.free_anon(100, pages_from_mb(4));
  ASSERT_GT(manager.free_pages(), config.watermark_low);

  const VmStat before = manager.vmstat();
  const std::uint64_t allocations_before = g_heap_allocations;
  manager.alloc_anon(100, pages_from_mb(13), 0, nullptr);
  const std::uint64_t allocations = g_heap_allocations - allocations_before;
  const VmStat& after = manager.vmstat();
  const std::uint64_t batches = (after.pgscan_kswapd + after.pgscan_direct -
                                 before.pgscan_kswapd - before.pgscan_direct) /
                                static_cast<std::uint64_t>(config.kswapd_batch);

  ASSERT_GE(batches, 1000u);
  EXPECT_EQ(after.kills_lmkd, 0u);
  EXPECT_LT(allocations * 100, batches) << allocations << " allocations over " << batches
                                        << " batches";
  EXPECT_TRUE(manager.check_conservation().ok) << manager.check_conservation().detail;
}

// The conservation audit recounts the kept sums by walking the registry:
// a field written behind the registry's back is named, not trusted.
TEST(MemoryManagerImmediate, ConservationNamesAStaleKeptSum) {
  ImmediateFixture fx;
  fx.manager.register_process(100, "app", OomAdj::kCached);
  fx.manager.alloc_anon(100, pages_from_mb(8), 0, nullptr);
  ASSERT_TRUE(fx.manager.check_conservation().ok) << fx.manager.check_conservation().detail;
  const_cast<ProcessMem*>(fx.manager.registry().find(100))->hot_pages = pages_from_mb(2);
  const MemoryManager::ConservationReport report = fx.manager.check_conservation();
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.detail.find("cold anon of band 2 kept 2048 != walk 1536"), std::string::npos)
      << report.detail;
}

TEST(MemoryManagerImmediate, VmstatTracksScansAndSteals) {
  ImmediateFixture fx;
  fx.manager.register_process(100, "app", OomAdj::kForeground);
  fx.manager.alloc_anon(100, pages_from_mb(185), 0, nullptr);
  const auto& vm = fx.manager.vmstat();
  EXPECT_GT(vm.pgscan_kswapd, 0u);
  EXPECT_GT(vm.pgsteal_kswapd, 0u);
  EXPECT_GT(vm.kswapd_wakeups, 0u);
}

// -------- Scheduled-mode MemoryManager ---------------------------------------

struct ScheduledFixture {
  sim::Engine engine;
  trace::Tracer tracer;
  sched::Scheduler scheduler;
  storage::StorageDevice storage;
  MemoryManager manager;

  explicit ScheduledFixture(const MemoryConfig& config = small_config())
      : scheduler(engine, tracer, sched_config()),
        storage(engine, scheduler, storage::StorageConfig{}),
        manager(engine, config, scheduler, storage, tracer) {}

  static sched::SchedulerConfig sched_config() {
    sched::SchedulerConfig config;
    config.cores = std::vector<sched::CoreConfig>(4, sched::CoreConfig{1.0});
    return config;
  }

  sched::ThreadId make_app_thread(const std::string& name, ProcessId pid) {
    sched::ThreadSpec spec;
    spec.name = name;
    spec.pid = pid;
    spec.process_name = "app" + std::to_string(pid);
    return scheduler.create_thread(spec);
  }
};

TEST(MemoryManagerScheduled, FastPathAllocIsSynchronous) {
  ScheduledFixture fx;
  fx.manager.register_process(100, "app", OomAdj::kForeground);
  bool ok = false;
  fx.manager.alloc_anon(100, pages_from_mb(2), 0, [&](bool success) { ok = success; });
  EXPECT_TRUE(ok);  // no engine.run() needed: fast path
}

TEST(MemoryManagerScheduled, KswapdRunsOnCpuWhenWoken) {
  ScheduledFixture fx;
  fx.manager.register_process(100, "app", OomAdj::kForeground);
  fx.manager.register_process(200, "cached", OomAdj::kCached);
  fx.manager.registry().set_killable(200, false);
  fx.manager.alloc_anon(200, pages_from_mb(60), 0, nullptr);
  fx.manager.alloc_anon(100, pages_from_mb(160), 0, [](bool) {});
  fx.engine.run_until(sec(5));
  fx.tracer.finalize(fx.engine.now());
  const auto times = trace::state_times(fx.tracer, {fx.manager.kswapd_tid()});
  EXPECT_GT(times.running, 0.0);
  EXPECT_GT(fx.manager.zram_stored(), 0);
}

TEST(MemoryManagerScheduled, DirectReclaimStallsAllocatingThread) {
  ScheduledFixture fx;
  fx.manager.register_process(100, "app", OomAdj::kForeground);
  fx.manager.register_process(200, "cached", OomAdj::kCached);
  fx.manager.alloc_anon(200, pages_from_mb(100), 0, nullptr);
  const auto tid = fx.make_app_thread("allocator", 100);

  // Fill memory close to the wire synchronously first.
  fx.manager.alloc_anon(100, pages_from_mb(80), 0, nullptr);
  sim::Time alloc_done = -1;
  fx.engine.schedule(msec(10), [&] {
    fx.manager.alloc_anon(100, pages_from_mb(12), tid, [&](bool ok) {
      ASSERT_TRUE(ok);
      alloc_done = fx.engine.now();
    });
  });
  fx.engine.run_until(sec(10));
  EXPECT_GT(alloc_done, msec(10));  // the allocation was not instantaneous
  EXPECT_GT(fx.manager.vmstat().direct_reclaim_entries, 0u);
}

// Ariadne's batches allocate nothing once its hotness table has a row
// for every thread: in a long scheduled-mode reclaim (small batches,
// kswapd running batch after batch, two threads per process) the table
// is refilled in place, and the world stays far below one heap
// allocation per 100 batches.
TEST(MemoryManagerScheduled, AriadneBatchesAllocateLessThanOncePerHundred) {
  sim::Engine engine;
  trace::Tracer tracer(trace::TraceLevel::Counters);
  sched::Scheduler scheduler(engine, tracer, ScheduledFixture::sched_config());
  storage::StorageDevice storage(engine, scheduler, storage::StorageConfig{});
  MemoryConfig config = small_config();
  config.kswapd_batch = 2;
  // Room in zRAM for every anonymous page: each batch then takes its
  // whole budget and frees at least a page, so kswapd never stops early.
  config.zram_capacity = pages_from_mb(256);
  MemoryManager manager(engine, config, scheduler, storage, tracer, {"ariadne", {}});
  for (const ProcessId pid : {100u, 200u, 300u}) {
    manager.register_process(pid, "app", pid == 100 ? OomAdj::kForeground : OomAdj::kCached);
    manager.registry().set_killable(pid, false);
    for (const double work : {1000.0, 3000.0}) {
      sched::ThreadSpec spec;
      spec.pid = pid;
      scheduler.run_work(scheduler.create_thread(spec), work, [] {});
    }
  }
  manager.alloc_anon(200, pages_from_mb(40), 0, nullptr);
  manager.alloc_anon(300, pages_from_mb(40), 0, nullptr);
  // Warm-up: one reclaim to the high watermark indexes every thread.
  manager.alloc_anon(100, pages_from_mb(104), 0, nullptr);
  ASSERT_LT(manager.free_pages(), config.watermark_low);
  engine.run_until(sec(1));
  ASSERT_GE(manager.free_pages(), config.watermark_high);

  const VmStat before = manager.vmstat();
  const std::uint64_t allocations_before = g_heap_allocations;
  manager.alloc_anon(100, manager.free_pages() - config.watermark_min - 1, 0, nullptr);
  engine.run_until(sec(2));
  const std::uint64_t allocations = g_heap_allocations - allocations_before;
  const VmStat& after = manager.vmstat();
  // A desperate batch scans twice the batch, so this undercounts.
  const std::uint64_t batches = (after.pgscan_kswapd - before.pgscan_kswapd) /
                                static_cast<std::uint64_t>(2 * config.kswapd_batch);

  ASSERT_GE(manager.free_pages(), config.watermark_high);
  ASSERT_GE(batches, 1000u);
  EXPECT_EQ(after.direct_reclaim_entries, before.direct_reclaim_entries);
  EXPECT_EQ(after.kills_lmkd, 0u);
  EXPECT_LT(allocations * 100, batches) << allocations << " allocations over " << batches
                                        << " batches";
  EXPECT_TRUE(manager.check_conservation().ok) << manager.check_conservation().detail;
}

TEST(MemoryManagerScheduled, WritebackGoesThroughMmcqd) {
  ScheduledFixture fx;
  fx.manager.register_process(100, "app", OomAdj::kForeground);
  fx.manager.registry().set_killable(100, false);
  fx.manager.dirty_file(pages_from_mb(40));
  fx.manager.alloc_anon(100, pages_from_mb(280), 0, [](bool) {});
  fx.engine.run_until(sec(20));
  EXPECT_GT(fx.storage.counters().writes, 0u);
  EXPECT_GT(fx.manager.vmstat().pgpgout, 0u);
}

TEST(MemoryManagerScheduled, FileRefaultsReadFromStorage) {
  ScheduledFixture fx;
  fx.manager.register_process(100, "fg", OomAdj::kForeground);
  fx.manager.map_file(100, pages_from_mb(20), 0, nullptr);
  fx.engine.run_until(sec(1));
  // Force eviction of the file pages.
  fx.manager.register_process(300, "hog", OomAdj::kVisible);
  fx.manager.alloc_anon(300, pages_from_mb(165), 0, nullptr);
  fx.engine.run_until(sec(10));
  const auto* fg = fx.manager.registry().find(100);
  ASSERT_NE(fg, nullptr);
  ASSERT_LT(fg->file_resident, pages_from_mb(20));

  const auto reads_before = fx.storage.counters().reads;
  const auto tid = fx.make_app_thread("toucher", 100);
  bool done = false;
  fx.manager.touch_working_set(100, tid, 0, pages_from_mb(20), [&](bool ok) { done = ok; });
  fx.engine.run_until(sec(20));
  EXPECT_TRUE(done);
  EXPECT_GT(fx.storage.counters().reads, reads_before);
  EXPECT_GT(fx.manager.vmstat().pgpgin, 0u);
}

TEST(MemoryManagerScheduled, ForegroundKilledOnlyAtExtremePressure) {
  ScheduledFixture fx;
  bool fg_killed = false;
  fx.manager.register_process(100, "fg", OomAdj::kForeground, [&] { fg_killed = true; });
  // No cached processes at all: over-allocating must eventually make the
  // foreground itself eligible (P >= 95).
  fx.manager.alloc_anon(100, pages_from_mb(500), 0, [](bool) {});
  fx.engine.run_until(sec(30));
  EXPECT_TRUE(fg_killed);
  EXPECT_FALSE(fx.manager.registry().alive(100));
}

TEST(MemoryManagerScheduled, PendingWaiterSatisfiedAfterKillFreesMemory) {
  // Tiny zram so compression alone cannot satisfy demand: lmkd must kill.
  MemoryConfig config = small_config();
  config.zram_capacity = pages_from_mb(8);
  ScheduledFixture fx(config);
  fx.manager.register_process(100, "fg", OomAdj::kForeground);
  for (ProcessId pid = 10; pid < 14; ++pid) {
    fx.manager.register_process(pid, "cached", OomAdj::kCached);
    fx.manager.alloc_anon(pid, pages_from_mb(30), 0, nullptr);
  }
  // Exhaust most memory (zram is small enough that kills are required).
  fx.manager.alloc_anon(100, pages_from_mb(60), 0, nullptr);
  bool satisfied = false;
  fx.manager.alloc_anon(100, pages_from_mb(40), 0, [&](bool ok) { satisfied = ok; });
  fx.engine.run_until(sec(30));
  EXPECT_TRUE(satisfied);
  EXPECT_GT(fx.manager.vmstat().kills_lmkd, 0u);
}

}  // namespace
}  // namespace mvqoe::mem
