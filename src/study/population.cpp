#include "study/population.hpp"

#include <algorithm>
#include <cmath>

namespace mvqoe::study {

core::DeviceProfile StudyDevice::profile() const {
  return core::generic_device(ram_mb, cores, freq_ghz);
}

const std::vector<std::string>& manufacturers() {
  static const std::vector<std::string> names = {
      "Samsung", "Xiaomi", "Huawei",   "Oppo",    "Vivo",    "Nokia",
      "Tecno",   "Infinix", "Motorola", "Realme", "OnePlus", "Google",
  };
  return names;
}

namespace {

/// Draw a 1-5 rating with a given mode; mass concentrates around it.
int draw_rating(stats::Rng& rng, int mode) {
  const double value = rng.normal(static_cast<double>(mode), 1.1);
  return static_cast<int>(std::clamp(std::lround(value), 1L, 5L));
}

}  // namespace

UserProfile sample_user(stats::Rng& rng) {
  UserProfile user;
  user.rating_video = draw_rating(rng, 4);
  user.rating_music = draw_rating(rng, 3);
  user.rating_games = draw_rating(rng, 2);
  user.rating_multitask_1 = draw_rating(rng, 4);
  user.rating_multitask_2 = draw_rating(rng, 3);
  user.app_switches_per_minute = rng.uniform(0.5, 2.0);
  user.max_open_apps = 2 + user.rating_multitask_2;
  return user;
}

StudyDevice generate_study_device(int i, std::uint64_t seed) {
  // RAM mix: skewed to 2-4 GB as in the study (total device memory
  // "ranged from 1 GB to 8 GB").
  static const std::vector<double> ram_weights = {0.08, 0.24, 0.26, 0.24, 0.12, 0.06};
  static const std::int64_t ram_options[] = {1024, 2048, 3072, 4096, 6144, 8192};

  stats::Rng rng(stats::derive_seed(seed, static_cast<std::uint64_t>(i)));
  StudyDevice device;
  device.index = i;
  device.manufacturer =
      manufacturers()[static_cast<std::size_t>(rng.uniform_int(0, 11))];
  device.ram_mb = ram_options[rng.weighted_index(ram_weights)];
  // Core count / frequency by tier.
  if (device.ram_mb <= 1024) {
    device.cores = 4;
    device.freq_ghz = rng.uniform(1.1, 1.5);
  } else if (device.ram_mb <= 3072) {
    device.cores = rng.bernoulli(0.5) ? 4 : 8;
    device.freq_ghz = rng.uniform(1.4, 2.1);
  } else {
    device.cores = 8;
    device.freq_ghz = rng.uniform(1.8, 2.8);
  }
  // Interactive hours: lognormal, median ~18 h, long tail; the paper's
  // cleaning rule (> 10 h) then keeps ~60% of devices.
  device.interactive_hours = std::clamp(rng.lognormal(2.9, 0.8), 1.0, 90.0);
  device.user = sample_user(rng);
  return device;
}

std::vector<StudyDevice> generate_population(int n, std::uint64_t seed) {
  std::vector<StudyDevice> devices;
  devices.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) devices.push_back(generate_study_device(i, seed));
  return devices;
}

core::DeviceProfile FleetFamily::profile() const {
  core::DeviceProfile device = core::generic_device(ram_mb, cores, freq_ghz);
  // Fleet templates boot a tier-scaled cached-app set instead of
  // generic_device's study calibration (8 + 2 per GB): a 1 GB
  // Go-edition build does not hold eight cached apps at boot, and
  // booting one into an immediate kill cascade costs ~10x a clean boot
  // for every world template. Session pressure still builds the honest
  // way, from cohort preloads and in-session app churn.
  const std::int64_t ram_gb = std::max<std::int64_t>(1, ram_mb / 1024);
  device.baseline_cached = static_cast<int>(std::clamp<std::int64_t>(2 * ram_gb, 2, 8));
  return device;
}

const std::vector<FleetFamily>& fleet_families() {
  // Weights mirror the study's RAM mix; names are tiers, not brands, so
  // the catalog stays orthogonal to manufacturers().
  static const std::vector<FleetFamily> families = {
      {"entry-1g", 1024, 4, 1.3, 0.08},   {"budget-2g", 2048, 4, 1.6, 0.24},
      {"budget-3g", 3072, 8, 1.8, 0.26},  {"mid-4g", 4096, 8, 2.0, 0.24},
      {"upper-6g", 6144, 8, 2.4, 0.12},   {"flagship-8g", 8192, 8, 2.8, 0.06},
  };
  return families;
}

}  // namespace mvqoe::study
