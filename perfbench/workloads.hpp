// The benchmark's four workloads (README.md has why each exists).
//
// A workload turns a seed into one fixed *pass* of inputs — a list of
// runs — and executes the pass through the library's public entry
// points, checking every run's outputs. The harness (main.cpp) repeats
// the pass in a closed loop: the next run starts only after the previous
// one returned. Because the pass is fixed, its output digest must be the
// same on every repetition.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// One completed run: its host latency, the simulated device-seconds it
/// covered, and whether every output check passed.
struct RunSample {
  double host_ms = 0.0;
  double sim_s = 0.0;
  bool ok = false;
};

struct PassResult {
  std::vector<RunSample> runs;
  /// Digest over every run's outputs, in run order.
  std::uint64_t digest = 0;
  /// First failed check of the pass ("" when every run passed).
  std::string failure;
};

/// Outcome of a workload's once-per-invocation cross-check.
struct CrossCheck {
  /// First failed check ("" when every check held).
  std::string failure;
  /// Runs of the pass that failed the check. Every pass repeats the same
  /// runs, so each of them counts as failed in every pass.
  std::uint64_t failed_runs = 0;
};

/// Per-layer observations of traced passes: counters summed over the
/// runs of one pass, and per-run time samples (reported as medians).
struct LayerStats {
  std::map<std::string, double> counts;
  std::map<std::string, std::vector<double>> samples;

  void add(const std::string& name, double value) { counts[name] += value; }
  void sample(const std::string& name, double value) { samples[name].push_back(value); }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the pass inputs from `seed` (part of set-up).
  virtual void generate(std::uint64_t seed) = 0;
  /// One untimed run before measurement (part of set-up).
  virtual void warm_up() = 0;
  /// Execute the pass. `layers` is non-null on traced passes, which
  /// also record spans into `spans`.
  virtual PassResult run_pass(SpanRecorder& spans, LayerStats* layers) = 0;
  /// Once-per-invocation cross-check after measurement.
  virtual CrossCheck final_check() { return {}; }
};

const std::vector<std::string>& workload_names();
/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

struct MetricDef {
  const char* name;
  const char* unit;
};
/// Every per-layer metric the traced run reports, in print order.
const std::vector<MetricDef>& layer_metric_defs();
/// Final per-layer values from the traced passes' stats (0 for a layer
/// the workload does not exercise).
std::map<std::string, double> layer_metric_values(const LayerStats& stats);

double median(std::vector<double> values);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

}  // namespace perfbench
