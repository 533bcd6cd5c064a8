#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "fleet/device_session.hpp"
#include "snapshot/digest.hpp"
#include "study/analysis.hpp"

namespace mvqoe::study {
namespace {

/// Every field of one device's study result, doubles by bit pattern and
/// vectors length-prefixed, so any change to a sample or its order shows.
void mix_result(snapshot::StateHash& hash, const DeviceStudyResult& result) {
  const auto mix_double = [&hash](double value) { hash.mix(std::bit_cast<std::uint64_t>(value)); };
  const auto mix_doubles = [&](const std::vector<double>& values) {
    hash.mix(values.size());
    for (const double value : values) mix_double(value);
  };
  hash.mix(static_cast<std::uint64_t>(result.device.index));
  hash.mix(static_cast<std::uint64_t>(result.device.ram_mb));
  mix_double(result.hours_logged);
  mix_doubles(result.utilization_samples);
  mix_double(result.median_utilization);
  for (std::size_t level = 0; level < kLevels; ++level) {
    hash.mix(result.signals[level]);
    mix_double(result.seconds_in_level[level]);
    for (const std::uint64_t count : result.transitions[level]) hash.mix(count);
    mix_doubles(result.dwell_seconds[level]);
    mix_doubles(result.available_mb_by_state[level]);
  }
}

TEST(Population, GeneratesRequestedCount) {
  const auto population = generate_population(80, 42);
  EXPECT_EQ(population.size(), 80u);
}

TEST(Population, DeterministicPerSeed) {
  const auto a = generate_population(20, 5);
  const auto b = generate_population(20, 5);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ram_mb, b[i].ram_mb);
    EXPECT_EQ(a[i].manufacturer, b[i].manufacturer);
    EXPECT_DOUBLE_EQ(a[i].interactive_hours, b[i].interactive_hours);
  }
}

TEST(Population, RamRangeMatchesStudy) {
  const auto population = generate_population(200, 42);
  std::int64_t lo = 1 << 20;
  std::int64_t hi = 0;
  for (const auto& device : population) {
    lo = std::min(lo, device.ram_mb);
    hi = std::max(hi, device.ram_mb);
    EXPECT_GE(device.ram_mb, 1024);
    EXPECT_LE(device.ram_mb, 8192);
  }
  EXPECT_EQ(lo, 1024);  // 1 GB to 8 GB, as in the paper
  EXPECT_EQ(hi, 8192);
}

TEST(Population, VideoIsMostFrequentActivity) {
  const auto population = generate_population(200, 42);
  double games = 0.0;
  double music = 0.0;
  double video = 0.0;
  for (const auto& device : population) {
    games += device.user.rating_games;
    music += device.user.rating_music;
    video += device.user.rating_video;
  }
  EXPECT_GT(video, music);
  EXPECT_GT(music, games);
}

TEST(Population, ManufacturerDiversity) {
  const auto population = generate_population(80, 42);
  std::set<std::string> seen;
  for (const auto& device : population) seen.insert(device.manufacturer);
  EXPECT_GE(seen.size(), 10u);  // 12 manufacturers in the paper's study
}

TEST(Population, CleaningRuleKeepsRoughlyHalf) {
  const auto population = generate_population(80, 42);
  int kept = 0;
  for (const auto& device : population) {
    if (device.interactive_hours > 10.0) ++kept;
  }
  // Paper: 48 of 80 devices survived the > 10 h rule.
  EXPECT_GE(kept, 35);
  EXPECT_LE(kept, 70);
}

TEST(DeviceSim, ShortRunProducesSamples) {
  StudyDevice device = generate_population(1, 3)[0];
  device.ram_mb = 2048;
  device.interactive_hours = 0.5;
  const auto result = fleet::simulate_study_device(device, 99);
  EXPECT_NEAR(result.hours_logged, 0.5, 1e-9);
  EXPECT_FALSE(result.utilization_samples.empty());
  EXPECT_GT(result.median_utilization, 0.2);
  EXPECT_LT(result.median_utilization, 1.0);
  double total_seconds = 0.0;
  for (const double s : result.seconds_in_level) total_seconds += s;
  EXPECT_NEAR(total_seconds, 0.5 * 3600.0, 1.0);
}

TEST(DeviceSim, LowRamDeviceSeesPressureSignals) {
  StudyDevice device = generate_population(1, 3)[0];
  device.ram_mb = 1024;
  device.cores = 4;
  device.freq_ghz = 1.2;
  device.interactive_hours = 2.0;
  device.user.rating_video = 5;
  device.user.app_switches_per_minute = 2.0;
  device.user.max_open_apps = 6;
  const auto result = fleet::simulate_study_device(device, 11);
  EXPECT_GT(result.signals[1] + result.signals[2] + result.signals[3], 0u);
  EXPECT_GT(result.fraction_not_normal(), 0.0);
}

TEST(DeviceSim, HighRamDeviceMostlyNormal) {
  StudyDevice device = generate_population(1, 3)[0];
  device.ram_mb = 8192;
  device.cores = 8;
  device.freq_ghz = 2.6;
  device.interactive_hours = 1.0;
  const auto result = fleet::simulate_study_device(device, 12);
  EXPECT_GT(result.fraction_in_level(0), 0.9);
}

TEST(DeviceSim, DeterministicPerSeed) {
  StudyDevice device = generate_population(1, 3)[0];
  device.ram_mb = 1024;
  device.interactive_hours = 0.3;
  const auto a = fleet::simulate_study_device(device, 5);
  const auto b = fleet::simulate_study_device(device, 5);
  EXPECT_EQ(a.signals, b.signals);
  EXPECT_DOUBLE_EQ(a.median_utilization, b.median_utilization);
}

// Pins the whole per-device study output (Figs 2-6 read nothing else),
// run on three threads: the value was recorded serially. At this scale
// devices 0 and 4 log more than 7200 s and one level of each holds more
// than 2000 s, so both reservoirs fill and start replacing samples on
// the session RNG.
TEST(DeviceSim, StudyResultsArePinned) {
  auto population = generate_population(8, 42);
  for (auto& device : population) device.interactive_hours *= 0.075;
  snapshot::StateHash hash;
  bool both_reservoirs_full = false;
  for (const DeviceStudyResult& result : fleet::run_study(population, 1, 3)) {
    mix_result(hash, result);
    const bool level_full = std::any_of(result.seconds_in_level.begin(),
                                        result.seconds_in_level.end(),
                                        [](double seconds) { return seconds > 2000.0; });
    both_reservoirs_full |= result.hours_logged * 3600.0 > 7200.0 && level_full;
  }
  EXPECT_TRUE(both_reservoirs_full);
  EXPECT_EQ(hash.value(), 0x865ed38d568d9c89ULL);
}

TEST(DeviceSim, CleanDropsShortLogs) {
  std::vector<DeviceStudyResult> results(3);
  results[0].hours_logged = 5.0;
  results[1].hours_logged = 15.0;
  results[2].hours_logged = 50.0;
  const auto kept = clean(std::move(results));
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_DOUBLE_EQ(kept[0].hours_logged, 15.0);
}

TEST(Analysis, HeatmapCountsSumToPopulation) {
  const auto population = generate_population(80, 42);
  const auto heatmap = usage_heatmap(population);
  for (int activity = 0; activity < 5; ++activity) {
    int total = 0;
    for (int rating = 0; rating < 5; ++rating) {
      total += heatmap.counts[static_cast<std::size_t>(activity)][static_cast<std::size_t>(rating)];
    }
    EXPECT_EQ(total, 80);
  }
}

TEST(Analysis, SummaryPercentagesBounded) {
  std::vector<DeviceStudyResult> results(4);
  for (auto& result : results) result.hours_logged = 20.0;
  results[0].median_utilization = 0.70;
  results[0].signals[3] = 20 * 15;  // 15 critical/hour
  results[0].seconds_in_level[3] = 20.0 * 3600.0 * 0.6;
  results[1].median_utilization = 0.65;
  results[2].median_utilization = 0.40;
  results[3].median_utilization = 0.80;
  const auto summary = summarize(results);
  EXPECT_EQ(summary.devices, 4u);
  EXPECT_DOUBLE_EQ(summary.percent_median_util_ge_60, 75.0);
  EXPECT_DOUBLE_EQ(summary.percent_median_util_gt_75, 25.0);
  EXPECT_DOUBLE_EQ(summary.percent_with_10_critical_per_hour, 25.0);
  EXPECT_DOUBLE_EQ(summary.percent_time50_high_pressure, 25.0);
}

TEST(Analysis, TransitionPercentRowsSumTo100) {
  std::vector<DeviceStudyResult> results(1);
  auto& result = results[0];
  result.hours_logged = 20.0;
  result.seconds_in_level[3] = 20.0 * 3600.0 * 0.5;
  result.transitions[3][2] = 60;
  result.transitions[3][0] = 40;
  result.dwell_seconds[3] = {5.0, 10.0, 12.0};
  const auto stats = transition_stats(results, 0.3, 1);
  EXPECT_NEAR(stats.percent[3][2], 60.0, 1e-9);
  EXPECT_NEAR(stats.percent[3][0], 40.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.dwell[3].median, 10.0);
}

TEST(Analysis, ViolinPicksMostPressuredDevices) {
  std::vector<DeviceStudyResult> results(3);
  for (int i = 0; i < 3; ++i) {
    results[static_cast<std::size_t>(i)].device.index = i;
    results[static_cast<std::size_t>(i)].hours_logged = 10.0;
  }
  results[1].seconds_in_level[1] = 10.0 * 3600.0 * 0.4;  // most pressured
  results[1].available_mb_by_state[1] = {100.0, 120.0, 140.0};
  const auto violins = availability_violins(results, 1);
  ASSERT_EQ(violins.size(), 1u);
  EXPECT_EQ(violins[0].device_index, 1);
  EXPECT_EQ(violins[0].by_state[1].box.n, 3u);
}

TEST(Analysis, UtilizationCdfSorted) {
  std::vector<DeviceStudyResult> results(3);
  results[0].median_utilization = 0.7;
  results[1].median_utilization = 0.5;
  results[2].median_utilization = 0.9;
  const auto cdf = utilization_cdf(results);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 0.5);
  EXPECT_DOUBLE_EQ(cdf[2].value, 0.9);
  EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
}

}  // namespace
}  // namespace mvqoe::study
