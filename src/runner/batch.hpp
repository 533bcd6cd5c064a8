// Thread-pool batch experiment runner.
//
// Every figure and table in the paper is a sweep of many independent
// seeded runs (5-run means with 95% CIs). Each run owns its whole world —
// Engine, MemoryManager, Scheduler, RNG stream — so runs are embarrassingly
// parallel; the only contract is determinism: results come back in run-index
// order with values independent of worker count and completion order.
//
//   auto batch = runner::run_batch(cells.size(), jobs, [&](std::size_t i) {
//     return simulate(cells[i]);   // builds its own Engine etc.
//   });
//   for (const auto& slot : batch.runs) ...   // index order, always
//
// The serial path (jobs == 1) and the parallel path execute the exact same
// per-run code on the exact same per-run seeds, so they are byte-identical.
// A run that throws is reported as a structured per-run failure; the other
// runs complete normally.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace mvqoe::runner {

/// Parse `text`, the value of `name` (a command-line flag or argument, or
/// an environment variable), as a decimal number in [lo, hi]. Throws
/// std::invalid_argument naming `name` on empty input, a sign the type
/// does not take, trailing characters, overflow, non-finite values and
/// values outside [lo, hi], so a malformed knob fails loudly instead of
/// falling back to a default. A multi-digit integer with a leading zero
/// is rejected too: no base-0 spelling (`010`, `0x1f`) that an older
/// strtoull command line accepted can change meaning silently.
/// Instantiated for int, std::int64_t, std::uint64_t and double.
template <typename T>
T parse_number(std::string_view text, std::string_view name, T lo,
               T hi = std::numeric_limits<T>::max());

/// parse_number with only values > 0 accepted. Instantiated for int and
/// double.
template <typename T>
T parse_positive(std::string_view text, std::string_view name);

/// argv[index] of an example or bench, parsed by parse_number as `name`,
/// or `fallback` when argc <= index. A malformed value prints
/// "<argv[0]>: <reason>" on stderr and exits with status 2.
template <typename T>
T parse_arg(int argc, char** argv, int index, std::string_view name, T fallback, T lo,
            T hi = std::numeric_limits<T>::max());

/// Resolve a jobs request to a concrete worker count >= 1.
/// requested > 0 wins; otherwise the MVQOE_JOBS environment variable
/// (strictly parsed); otherwise std::thread::hardware_concurrency().
int resolve_jobs(int requested);

/// Parse `--jobs N` / `--jobs=N` out of argv (first match wins, strictly
/// parsed) and resolve it. Unrecognized arguments are ignored so examples
/// can keep their positional parameters.
int jobs_from_args(int argc, char** argv, int requested = 0);

/// run_batch pool threads started and not yet joined, process-wide. A
/// fork() while other threads run can leave the child's allocator locked,
/// so campaign::run_campaign refuses to fork while this is nonzero.
int live_pool_threads() noexcept;

namespace detail {

/// Run `worker` on `n` threads and join them. They count in
/// live_pool_threads() from before the first starts until after the last
/// is joined, also when starting one throws.
void run_pool(int n, const std::function<void()>& worker);

}  // namespace detail

/// One run's outcome: either a value or a structured failure.
template <typename Result>
struct RunSlot {
  std::size_t index = 0;
  bool ok = false;
  Result value{};      // default-constructed when !ok
  std::string error;   // exception text when !ok
};

template <typename Result>
struct BatchResult {
  std::vector<RunSlot<Result>> runs;  // always in run-index order
  int jobs_used = 1;
  std::size_t failures = 0;

  bool all_ok() const noexcept { return failures == 0; }
};

/// Execute `count` independent runs of `fn(run_index)` across `jobs`
/// worker threads (resolved via resolve_jobs). Results land in slot
/// [run_index] regardless of completion order; workers share nothing but
/// the atomic work-queue cursor, so fn must not touch shared mutable
/// state (each run builds its own Engine/Testbed).
template <typename Fn>
auto run_batch(std::size_t count, int jobs, Fn&& fn)
    -> BatchResult<std::remove_cvref_t<std::invoke_result_t<Fn&, std::size_t>>> {
  using Result = std::remove_cvref_t<std::invoke_result_t<Fn&, std::size_t>>;
  BatchResult<Result> batch;
  batch.runs.resize(count);
  for (std::size_t i = 0; i < count; ++i) batch.runs[i].index = i;

  auto execute_one = [&fn, &batch](std::size_t i) {
    RunSlot<Result>& slot = batch.runs[i];
    try {
      slot.value = fn(i);
      slot.ok = true;
    } catch (const std::exception& e) {
      slot.error = e.what();
    } catch (...) {
      slot.error = "unknown exception";
    }
  };

  const int workers =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(resolve_jobs(jobs)),
                                             count > 0 ? count : 1));
  batch.jobs_used = workers;
  if (workers <= 1) {
    // Serial fallback: same per-run code, same seeds, no threads — the
    // reference the parallel path must match byte for byte.
    for (std::size_t i = 0; i < count; ++i) execute_one(i);
  } else {
    std::atomic<std::size_t> cursor{0};
    auto worker = [&] {
      for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed); i < count;
           i = cursor.fetch_add(1, std::memory_order_relaxed)) {
        execute_one(i);
      }
    };
    detail::run_pool(workers, worker);
  }

  for (const RunSlot<Result>& slot : batch.runs) {
    if (!slot.ok) ++batch.failures;
  }
  return batch;
}

}  // namespace mvqoe::runner
