// perfbench: host-time benchmark of the mvqoe library (README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Sets up the workload several times (input generation plus one
// untimed warm-up run each), then repeats the workload's fixed pass in a
// closed loop until S seconds have passed and at least 100 latency
// samples are in. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it alternates untraced and traced passes and reports the
// per-layer metrics plus the tracing overhead.
// The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <alloca.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

// Sanitizer instrumentation distorts every timing, so such builds emit
// no numbers. Same detection as bench/bench_policy.cpp.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MVQOE_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MVQOE_BENCH_SANITIZED 1
#endif
#endif
#ifndef MVQOE_BENCH_SANITIZED
#define MVQOE_BENCH_SANITIZED 0
#endif

#ifdef __OPTIMIZE__
#define PERFBENCH_OPTIMIZED 1
#else
#define PERFBENCH_OPTIMIZED 0
#endif

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::median;
using perfbench::percentile;
using perfbench::RunSample;

/// Set-ups per invocation; setup_s is their median.
constexpr int kSetups = 9;
/// Fewest latency samples (runs, when traced) per invocation, so at
/// least ten lie beyond p90.
constexpr std::size_t kMinSamples = 100;
/// Fewest passes of each kind in a traced invocation.
constexpr std::size_t kMinTracedPasses = 5;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool parse_u64(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = value;
  return true;
}

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\nworkloads:");
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Peak resident set of this process image or of its largest waited-for
/// child, whichever is larger (a workload that never forks has none).
/// VmHWM rather than RUSAGE_SELF: ru_maxrss survives exec, so it would
/// report the launcher's footprint.
double peak_rss_mb() {
  long kb = 0;
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(status);
  }
  struct rusage usage{};
  if (::getrusage(RUSAGE_CHILDREN, &usage) == 0 && usage.ru_maxrss > kb) {
    kb = usage.ru_maxrss;
  }
  return static_cast<double>(kb) / 1024.0;
}

/// CPUs this process may run on, ascending.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Pin the process (and the children it forks from now on) to one CPU.
void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

/// Run one pass with the stack moved down by `offset` bytes. Where the
/// stack sits within a 4 KiB page against the heap can change a run's
/// time (load/store address aliasing). run.py turns ASLR off, so the
/// size of the environment and of the checkout's path would otherwise
/// pick that place once per process; varying it per pass lets each
/// run's best time come from a good place.
__attribute__((noinline)) perfbench::PassResult run_pass_at(perfbench::Workload& workload,
                                                            std::size_t offset,
                                                            perfbench::SpanRecorder& spans,
                                                            perfbench::LayerStats* layers) {
  void* pad = alloca(offset);
  asm volatile("" : : "r"(pad) : "memory");
  return workload.run_pass(spans, layers);
}

/// Stack offset of pass `pass`: consecutive passes step through all
/// 256 16-byte-aligned places in a page, in a scattered order.
std::size_t stack_offset(std::size_t pass) { return (pass * 37 % 256) * 16; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Running totals over the runs of one kind of pass.
struct Tally {
  std::uint64_t runs = 0;
  std::uint64_t failed = 0;
  double host_ms = 0.0;

  void add(const std::vector<RunSample>& samples) {
    for (const RunSample& run : samples) {
      ++runs;
      if (!run.ok) ++failed;
      host_ms += run.host_ms;
    }
  }
  double ms_per_run() const { return runs == 0 ? 0.0 : host_ms / static_cast<double>(runs); }
  double runs_per_s() const { return host_ms > 0.0 ? 1000.0 * runs / host_ms : 0.0; }
};

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();

  std::string workload_name;
  std::string trace_out;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return usage("missing value after a flag");
    ++i;
    if (std::strcmp(flag, "--workload") == 0) {
      workload_name = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!parse_u64(value, seed)) return usage("--seed takes a non-negative integer");
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!parse_u64(value, seconds) || seconds == 0 || seconds > 3600) {
        return usage("--seconds takes an integer in 1..3600");
      }
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!parse_u64(value, trace) || trace > 1) return usage("--trace takes 0 or 1");
      have_trace = true;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      trace_out = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  std::unique_ptr<perfbench::Workload> workload = perfbench::make_workload(workload_name);
  if (workload == nullptr) return usage("unknown workload");

  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%" PRIu64 " trace=%" PRIu64 "\n",
              workload_name.c_str(), seed, seconds, trace);
  std::printf("build: type=%s flags='%s' compiler='%s' nproc=%ld optimized=%d sanitized=%d\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, PERFBENCH_COMPILER,
              ::sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_OPTIMIZED, MVQOE_BENCH_SANITIZED);
  if (MVQOE_BENCH_SANITIZED || !PERFBENCH_OPTIMIZED) {
    std::fprintf(stderr, "perfbench: refusing to time a sanitizer or unoptimised build\n");
    return 3;
  }
  std::fflush(stdout);

  // On a shared host, load from other tenants lands on one virtual CPU
  // at a time and stays for seconds. Set-ups and passes therefore rotate
  // over the allowed CPUs, so no single busy CPU sets the result.
  const std::vector<int> cpus = allowed_cpus();
  const auto rotate = [&cpus](std::size_t step) {
    if (cpus.size() > 1) pin_to(cpus[step % cpus.size()]);
  };

  // Set-up: input generation plus one untimed warm-up run. The first is
  // timed from process start; setup_s is the median of all of them.
  std::vector<double> setups;
  try {
    for (int k = 0; k < kSetups; ++k) {
      if (k > 0) rotate(static_cast<std::size_t>(k));
      const Clock::time_point t0 = k == 0 ? process_start : Clock::now();
      workload->generate(seed);
      workload->warm_up();
      setups.push_back(seconds_since(t0));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }

  // Closed loop over whole passes. Traced invocations alternate untraced
  // (even) and traced (odd) passes, so the overhead comparison sees the
  // same drift on both sides.
  perfbench::SpanRecorder spans(false);
  perfbench::LayerStats layers;
  bool have_counts = false;
  Tally untraced, traced;
  // Every pass repeats the same inputs, so run i of each pass does the
  // same work and its cost is fixed; load from elsewhere on the machine
  // only adds to it, in bursts lasting seconds. So each run contributes
  // its k best times over all untraced passes, k = ceil(100 / runs per
  // pass), which gives 100 latency samples. Consecutive passes run on
  // different CPUs.
  std::vector<double> run_sim_s;
  // Per untraced pass, each run's latency (float: a fleet pass has 8192
  // runs, and this record counts toward peak_rss_mb).
  std::vector<std::vector<float>> untraced_ms;
  const auto best_k = [](std::size_t runs) { return (kMinSamples + runs - 1) / runs; };
  std::uint64_t digest = 0;
  std::string failure;
  std::size_t passes = 0;
  std::size_t traced_span_limit = 0;
  const Clock::time_point measure_start = Clock::now();
  double measured_s = 0.0;
  for (;;) {
    const bool traced_pass = trace == 1 && passes % 2 == 1;
    // Traced runs alternate kinds, so rotate per pair of passes.
    rotate(trace == 1 ? passes / 2 : passes);
    spans.set_enabled(traced_pass);
    perfbench::LayerStats pass_layers;
    perfbench::PassResult pass;
    try {
      pass = run_pass_at(*workload, stack_offset(passes), spans,
                         traced_pass ? &pass_layers : nullptr);
    } catch (const std::exception& e) {
      pass.failure = std::string("pass threw: ") + e.what();
    }
    if (passes == 0) {
      digest = pass.digest;
    } else if (pass.digest != digest && failure.empty()) {
      failure = "output digest changed between passes";
    }
    if (!pass.failure.empty() && failure.empty()) failure = pass.failure;
    (traced_pass ? traced : untraced).add(pass.runs);
    if (traced_pass) {
      // Counts are exact totals of one pass; time samples pool all.
      if (!have_counts) {
        layers.counts = pass_layers.counts;
        spans.limit_export();
        traced_span_limit = spans.span_count();
        have_counts = true;
      }
      for (auto& [name, samples] : pass_layers.samples) {
        auto& pooled = layers.samples[name];
        pooled.insert(pooled.end(), samples.begin(), samples.end());
      }
    } else if (!pass.runs.empty() &&
               (run_sim_s.empty() || pass.runs.size() == run_sim_s.size())) {
      if (run_sim_s.empty()) {
        for (const RunSample& run : pass.runs) run_sim_s.push_back(run.sim_s);
      }
      std::vector<float>& ms = untraced_ms.emplace_back();
      for (const RunSample& run : pass.runs) ms.push_back(static_cast<float>(run.host_ms));
    }
    ++passes;
    measured_s = seconds_since(measure_start);
    // At least twice k passes, so the samples are the better half or less.
    const bool enough =
        trace == 0 ? !run_sim_s.empty() && untraced_ms.size() >= 2 * best_k(run_sim_s.size())
                   : untraced.runs + traced.runs >= kMinSamples && passes >= 2 * kMinTracedPasses;
    if (measured_s >= static_cast<double>(seconds) && (enough || !failure.empty())) break;
  }
  spans.set_enabled(false);
  perfbench::CrossCheck cross;
  try {
    cross = workload->final_check();
  } catch (const std::exception& e) {
    cross.failure = std::string("threw: ") + e.what();
  }
  if (!cross.failure.empty() && failure.empty()) failure = "cross-check: " + cross.failure;

  const std::uint64_t attempted = untraced.runs + traced.runs;
  const std::uint64_t failed = std::min<std::uint64_t>(
      attempted, untraced.failed + traced.failed + cross.failed_runs * passes);
  const bool correct = failure.empty() && failed == 0;

  std::printf("runs: %" PRIu64 " attempted, %" PRIu64 " failed, error_rate %.6f, %zu passes "
              "in %.3f s\n",
              attempted, failed, attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted,
              passes, measured_s);
  std::printf("output_digest %016" PRIx64 "\n", digest);
  if (!failure.empty()) std::printf("check failed: %s\n", failure.c_str());

  std::vector<Metric> metrics;
  if (trace == 0) {
    // The rates and percentiles all use the latency samples.
    const std::size_t n = untraced_ms.size();
    const std::size_t k = run_sim_s.empty() ? 0 : std::min(n, best_k(run_sim_s.size()));
    std::vector<double> sample_ms;
    double total_ms = 0.0, sim_total_s = 0.0;
    std::vector<float> times(n);
    for (std::size_t i = 0; i < run_sim_s.size(); ++i) {
      for (std::size_t p = 0; p < n; ++p) times[p] = untraced_ms[p][i];
      std::partial_sort(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(k), times.end());
      for (std::size_t j = 0; j < k; ++j) {
        sample_ms.push_back(times[j]);
        total_ms += times[j];
        sim_total_s += run_sim_s[i];
      }
    }
    const double total_s = total_ms / 1000.0;
    const double p90 = percentile(sample_ms, 90.0);
    metrics = {
        {"runs_per_s", total_s > 0.0 ? static_cast<double>(sample_ms.size()) / total_s : 0.0,
         "1/s"},
        {"sim_s_per_s", total_s > 0.0 ? sim_total_s / total_s : 0.0, "s/s"},
        {"run_ms_p50", percentile(sample_ms, 50.0), "ms"},
        {"run_ms_p90", p90, "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"setup_s", median(setups), "s"},
        {"success_rate",
         attempted == 0 ? 0.0 : static_cast<double>(attempted - failed) / attempted, "ratio"},
    };
    const auto beyond = std::count_if(sample_ms.begin(), sample_ms.end(),
                                      [p90](double ms) { return ms > p90; });
    std::printf("latency samples: %zu (%zu runs per pass x each run's best %zu of %zu untraced "
                "passes; %td beyond p90)\n",
                sample_ms.size(), run_sim_s.size(), k, n, beyond);
  } else {
    const double overhead =
        untraced.ms_per_run() > 0.0 ? (traced.ms_per_run() / untraced.ms_per_run() - 1.0) * 100.0
                                    : 0.0;
    std::printf("tracing overhead: untraced %.3f runs/s, traced %.3f runs/s (%+.2f%% per run)\n",
                untraced.runs_per_s(), traced.runs_per_s(), overhead);
    std::printf("layer self time over traced passes (span minus its children):\n");
    for (const auto& layer : spans.self_time_by_layer()) {
      std::printf("  %-10s %12.3f ms  %8" PRIu64 " spans\n", layer.layer.c_str(), layer.self_ms,
                  layer.spans);
    }
    std::map<std::string, double> values = perfbench::layer_metric_values(layers);
    values["bench.trace_overhead_pct"] = overhead;
    for (const perfbench::MetricDef& def : perfbench::layer_metric_defs()) {
      metrics.push_back({def.name, values[def.name], def.unit});
    }
    if (!trace_out.empty()) {
      if (spans.write_chrome_json(trace_out)) {
        std::printf("trace: %s (first traced pass, %zu spans)\n", trace_out.c_str(),
                    traced_span_limit);
      } else {
        std::printf("trace: could not write %s\n", trace_out.c_str());
      }
    }
  }

  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
