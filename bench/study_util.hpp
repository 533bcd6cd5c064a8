// Shared setup for the §3 field-study benches (Figures 1-6).
//
// The paper logged ~9950 hours across 80 devices. Signal rates, state
// dwell times and utilization are *intensive* statistics — they converge
// long before that — so the benches default to simulating a scaled-down
// observation window per device (MVQOE_STUDY_SCALE, default 0.1) and
// scale the > 10 h data-cleaning threshold with it.
#pragma once

#include <cstdlib>

#include "fleet/device_session.hpp"
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

/// The scaled population through fleet::run_study (session seed 1);
/// results keep population order whatever the worker count.
inline StudyData run_scaled_study(int devices = 80, std::uint64_t seed = 42, int jobs = 0) {
  StudyData data;
  data.population = study::generate_population(devices, seed);
  const double scale = study_scale();
  for (auto& device : data.population) device.interactive_hours *= scale;
  data.results = study::clean(fleet::run_study(data.population, 1, jobs), 10.0 * scale);
  return data;
}

}  // namespace mvqoe::bench
