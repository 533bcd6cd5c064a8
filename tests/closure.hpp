// Closures for tests that drive sched::Scheduler, whose bursts and sleeps
// take a flat continuation (`fn(ctx, arg)`, sim::Engine::FlatFn).
#pragma once

#include <cstdint>
#include <functional>

namespace mvqoe::testkit {

/// A continuation that does nothing. A burst given it still ends through
/// the scheduler's hand-off event, as one given an empty closure did.
inline void nothing(void*, std::uint64_t) {}

/// A closure passed as a continuation: `run_work(tid, w, &Closure::run, &c)`.
/// It must outlive every burst or sleep it is passed to.
struct Closure {
  std::function<void()> body;
  static void run(void* ctx, std::uint64_t) { static_cast<Closure*>(ctx)->body(); }
};

}  // namespace mvqoe::testkit
