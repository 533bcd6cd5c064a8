#include "fleet/population.hpp"

#include <algorithm>
#include <vector>

#include "stats/rng.hpp"

namespace mvqoe::fleet {

namespace {

const std::vector<double>& family_weights() {
  static const std::vector<double> weights = [] {
    std::vector<double> w;
    for (const study::FleetFamily& family : study::fleet_families()) w.push_back(family.weight);
    return w;
  }();
  return weights;
}

}  // namespace

FleetDevice sample_fleet_device(std::uint64_t index, std::uint64_t seed) {
  // Stream 2d samples the device, stream 2d+1 drives its session; the
  // two never collide with each other or with world streams (bit 32).
  stats::Rng rng(stats::derive_seed(seed, index * 2));
  FleetDevice device;
  device.index = index;
  device.session_seed = stats::derive_seed(seed, index * 2 + 1);
  device.family = static_cast<std::uint32_t>(rng.weighted_index(family_weights()));
  device.cohort = static_cast<std::uint32_t>(rng.uniform_int(0, kCohorts - 1));
  device.user = study::sample_user(rng);
  return device;
}

int cohort_preload_apps(std::uint32_t cohort, std::int64_t ram_mb) noexcept {
  const int retainable = static_cast<int>(std::max<std::int64_t>(2, ram_mb / 512));
  return std::min(static_cast<int>(cohort) * 3, retainable);
}

std::uint64_t fleet_world_seed(std::uint64_t seed, std::uint32_t family,
                               std::uint32_t cohort) noexcept {
  return stats::derive_seed(seed, (1ULL << 32) | (static_cast<std::uint64_t>(family) * 16 +
                                                  cohort));
}

}  // namespace mvqoe::fleet
