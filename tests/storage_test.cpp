#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "closure.hpp"
#include "storage/storage.hpp"
#include "trace/analysis.hpp"

// Every plain operator new in this binary is counted, so a test can
// bound the heap allocations of a stretch of simulation (as in
// sched_test.cpp).
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

namespace mvqoe::storage {
namespace {

using sim::msec;
using sim::sec;
using sim::usec;
using testkit::nothing;

struct Fixture {
  sim::Engine engine;
  trace::Tracer tracer;
  sched::Scheduler scheduler;
  Fixture(std::size_t cores = 1, double freq = 1.0)
      : scheduler(engine, tracer, make_config(cores, freq)) {}
  static sched::SchedulerConfig make_config(std::size_t cores, double freq) {
    sched::SchedulerConfig config;
    config.cores = std::vector<sched::CoreConfig>(cores, sched::CoreConfig{freq});
    config.context_switch_cost_refus = 0.0;
    config.migration_cost_refus = 0.0;
    return config;
  }
};

TEST(Storage, TransferTimeScalesWithBytes) {
  Fixture fx;
  StorageConfig config;
  config.read_bandwidth_mbps = 100.0;  // 100 MB/s -> 10 µs per KB
  config.request_latency = usec(250);
  StorageDevice dev(fx.engine, fx.scheduler, config);
  EXPECT_EQ(dev.transfer_time(false, 0), usec(250));
  EXPECT_EQ(dev.transfer_time(false, 100 * 1000), usec(250) + usec(1000));
}

TEST(Storage, WriteSlowerThanRead) {
  Fixture fx;
  StorageConfig config;
  config.read_bandwidth_mbps = 140.0;
  config.write_bandwidth_mbps = 45.0;
  StorageDevice dev(fx.engine, fx.scheduler, config);
  EXPECT_GT(dev.transfer_time(true, 1 << 20), dev.transfer_time(false, 1 << 20));
}

TEST(Storage, RequestCompletesAndCountersUpdate) {
  Fixture fx;
  StorageDevice dev(fx.engine, fx.scheduler, StorageConfig{});
  bool completed = false;
  dev.submit(IoRequest{false, 4096, [&] { completed = true; }});
  fx.engine.run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(dev.counters().reads, 1u);
  EXPECT_EQ(dev.counters().read_bytes, 4096u);
  EXPECT_EQ(dev.queue_depth(), 0u);
  EXPECT_FALSE(dev.busy());
}

TEST(Storage, RequestsServicedInFifoOrder) {
  Fixture fx;
  StorageDevice dev(fx.engine, fx.scheduler, StorageConfig{});
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    dev.submit(IoRequest{i % 2 == 1, 4096, [&order, i] { order.push_back(i); }});
  }
  fx.engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(dev.counters().reads, 3u);
  EXPECT_EQ(dev.counters().writes, 2u);
}

TEST(Storage, EmptyCallbackIsAllowed) {
  Fixture fx;
  StorageDevice dev(fx.engine, fx.scheduler, StorageConfig{});
  dev.submit(IoRequest{true, 4096, nullptr});
  fx.engine.run();
  EXPECT_EQ(dev.counters().writes, 1u);
}

TEST(Storage, MmcqdPreemptsFairThreadPerRequest) {
  Fixture fx;
  StorageDevice dev(fx.engine, fx.scheduler, StorageConfig{});
  // A fair hog occupies the single core; each I/O request should preempt
  // it twice (dispatch + completion bursts).
  const auto hog = fx.scheduler.create_thread([] {
    sched::ThreadSpec spec;
    spec.name = "video";
    spec.pid = 100;
    spec.process_name = "app";
    return spec;
  }());
  fx.scheduler.run_work(hog, 2'000'000.0, &nothing, nullptr);
  fx.engine.schedule(msec(5), [&] { dev.submit(IoRequest{false, 4096, nullptr}); });
  fx.engine.schedule(msec(50), [&] { dev.submit(IoRequest{false, 4096, nullptr}); });
  fx.engine.run();
  fx.tracer.finalize(fx.engine.now());

  const auto stats = trace::preemption_stats(fx.tracer, {hog}, "mmcqd");
  EXPECT_EQ(stats.count, 4u);  // 2 requests x (dispatch + completion)
  EXPECT_GT(stats.victim_wait_seconds, 0.0);
}

TEST(Storage, VictimWaitCoversDeviceTransfer) {
  Fixture fx;
  StorageConfig config;
  config.request_latency = msec(2);
  StorageDevice dev(fx.engine, fx.scheduler, config);
  const auto hog = fx.scheduler.create_thread([] {
    sched::ThreadSpec spec;
    spec.name = "video";
    spec.pid = 100;
    spec.process_name = "app";
    return spec;
  }());
  fx.scheduler.run_work(hog, 1'000'000.0, &nothing, nullptr);
  fx.engine.schedule(msec(5), [&] { dev.submit(IoRequest{false, 4096, nullptr}); });
  fx.engine.run();
  fx.tracer.finalize(fx.engine.now());

  // While mmcqd blocks on the 2ms transfer the victim runs again, so the
  // first preemption's wait is just the dispatch burst (60 ref-µs).
  const auto& recs = fx.tracer.preemptions();
  ASSERT_GE(recs.size(), 1u);
  EXPECT_LE(recs[0].victim_wait, usec(100));
}

TEST(Storage, MmcqdTracedAsKernelThread) {
  Fixture fx;
  StorageDevice dev(fx.engine, fx.scheduler, StorageConfig{});
  const auto* meta = fx.tracer.thread(dev.mmcqd_tid());
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->name, "mmcqd");
  EXPECT_EQ(meta->process_name, "kernel");
}

TEST(Storage, HighRequestRateKeepsMmcqdBusy) {
  Fixture fx(2);
  StorageDevice dev(fx.engine, fx.scheduler, StorageConfig{});
  // Sustained 4 KB page-in storm, as in thrashing.
  for (int i = 0; i < 500; ++i) dev.submit(IoRequest{false, 4096, nullptr});
  fx.engine.run();
  fx.tracer.finalize(fx.engine.now());
  const auto top = trace::top_running_threads(fx.tracer);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].name, "mmcqd");
  EXPECT_EQ(dev.counters().reads, 500u);
}

// The request in flight lives in the device and mmcqd's stages are flat
// events, so a steady stream of reads allocates nothing per request.
TEST(Storage, RequestRoundTripAllocatesNothing) {
  sim::Engine engine;
  trace::Tracer tracer(trace::TraceLevel::Counters);
  sched::Scheduler scheduler(engine, tracer, Fixture::make_config(1, 1.0));
  StorageDevice dev(engine, scheduler, StorageConfig{});
  constexpr int kRequests = 2000;
  // Warm-up: the queue and the engine's arena reach their working size.
  for (int i = 0; i < kRequests; ++i) dev.submit(IoRequest{false, 4096, nullptr});
  engine.run();
  const std::uint64_t allocations_before = g_heap_allocations;
  for (int i = 0; i < kRequests; ++i) dev.submit(IoRequest{false, 4096, nullptr});
  engine.run();
  const std::uint64_t allocations = g_heap_allocations - allocations_before;

  EXPECT_EQ(dev.counters().reads, 2u * kRequests);
  EXPECT_LT(allocations * 100, static_cast<std::uint64_t>(kRequests))
      << allocations << " allocations over " << kRequests << " requests";
}

// Tearing a world down mid-request frees every request it held: the one
// in flight (mid-transfer) and the one still queued, with their
// completion callbacks, which never run.
TEST(Storage, DestroyedMidTransferReleasesItsRequests) {
  auto engine = std::make_unique<sim::Engine>();
  trace::Tracer tracer;
  auto scheduler =
      std::make_unique<sched::Scheduler>(*engine, tracer, Fixture::make_config(1, 1.0));
  StorageConfig config;
  config.request_latency = msec(5);
  auto dev = std::make_unique<StorageDevice>(*engine, *scheduler, config);
  const auto token = std::make_shared<int>(0);
  int completed = 0;
  dev->submit(IoRequest{false, 4096, [token, &completed] { ++completed; }});
  dev->submit(IoRequest{true, 4096, [token, &completed] { ++completed; }});
  engine->run_until(msec(1));
  ASSERT_EQ(scheduler->state(dev->mmcqd_tid()), trace::ThreadState::BlockedIo);
  ASSERT_EQ(dev->queue_depth(), 1u);
  EXPECT_EQ(token.use_count(), 3);

  dev.reset();
  scheduler.reset();
  engine.reset();
  EXPECT_EQ(completed, 0);
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace mvqoe::storage
