// Shared setup for the §3 field-study benches (Figures 1-6).
//
// The paper logged ~9950 hours across 80 devices. Signal rates, state
// dwell times and utilization are *intensive* statistics — they converge
// long before that — so the benches default to simulating a scaled-down
// observation window per device (MVQOE_STUDY_SCALE, default 0.1) and
// scale the > 10 h data-cleaning threshold with it.
#pragma once

#include <cstdlib>
#include <utility>

#include "runner/batch.hpp"
#include "study/analysis.hpp"

namespace mvqoe::bench {

inline double study_scale() {
  const char* env = std::getenv("MVQOE_STUDY_SCALE");
  return env != nullptr ? runner::parse_positive<double>(env, "MVQOE_STUDY_SCALE") : 0.1;
}

struct StudyData {
  std::vector<study::StudyDevice> population;
  std::vector<study::DeviceStudyResult> results;  // cleaned
};

/// Each device is simulated with its own per-device seed, so the
/// population fans out across the batch runner; results keep population
/// order regardless of worker count (jobs == 1 is the serial reference).
inline StudyData run_scaled_study(int devices = 80, std::uint64_t seed = 42, int jobs = 0) {
  StudyData data;
  data.population = study::generate_population(devices, seed);
  const double scale = study_scale();
  for (auto& device : data.population) device.interactive_hours *= scale;
  auto batch = runner::run_batch(data.population.size(), jobs, [&data](std::size_t i) {
    return study::simulate_device(data.population[i], 1);
  });
  std::vector<study::DeviceStudyResult> results;
  results.reserve(batch.runs.size());
  for (auto& slot : batch.runs) {
    if (slot.ok) results.push_back(std::move(slot.value));
  }
  data.results = study::clean(std::move(results), 10.0 * scale);
  return data;
}

}  // namespace mvqoe::bench
