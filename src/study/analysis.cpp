#include "study/analysis.hpp"

#include <algorithm>

namespace mvqoe::study {

double DeviceStudyResult::signals_per_hour(int level) const noexcept {
  return hours_logged > 0.0
             ? static_cast<double>(signals[static_cast<std::size_t>(level)]) / hours_logged
             : 0.0;
}

double DeviceStudyResult::total_signals_per_hour() const noexcept {
  return signals_per_hour(1) + signals_per_hour(2) + signals_per_hour(3);
}

double DeviceStudyResult::fraction_in_level(int level) const noexcept {
  const double total = hours_logged * 3600.0;
  return total > 0.0 ? seconds_in_level[static_cast<std::size_t>(level)] / total : 0.0;
}

double DeviceStudyResult::fraction_not_normal() const noexcept {
  return fraction_in_level(1) + fraction_in_level(2) + fraction_in_level(3);
}

std::vector<DeviceStudyResult> clean(std::vector<DeviceStudyResult> results, double min_hours) {
  results.erase(std::remove_if(results.begin(), results.end(),
                               [min_hours](const DeviceStudyResult& result) {
                                 return result.hours_logged <= min_hours;
                               }),
                results.end());
  return results;
}

const char* UsageHeatmap::activity_name(int activity) noexcept {
  switch (activity) {
    case 0: return "playing games";
    case 1: return "listening to music";
    case 2: return "streaming videos";
    case 3: return "multitask (>1 app)";
    case 4: return "multitask (>2 apps)";
  }
  return "?";
}

UsageHeatmap usage_heatmap(const std::vector<StudyDevice>& population) {
  UsageHeatmap heatmap;
  for (const StudyDevice& device : population) {
    const UserProfile& user = device.user;
    const int ratings[5] = {user.rating_games, user.rating_music, user.rating_video,
                            user.rating_multitask_1, user.rating_multitask_2};
    for (int activity = 0; activity < 5; ++activity) {
      const int rating = std::clamp(ratings[activity], 1, 5);
      ++heatmap.counts[static_cast<std::size_t>(activity)][static_cast<std::size_t>(rating - 1)];
    }
  }
  return heatmap;
}

std::vector<stats::CdfPoint> utilization_cdf(const std::vector<DeviceStudyResult>& results) {
  std::vector<double> medians;
  medians.reserve(results.size());
  for (const DeviceStudyResult& result : results) medians.push_back(result.median_utilization);
  return stats::empirical_cdf(std::move(medians));
}

std::vector<SignalScatterRow> signal_scatter(const std::vector<DeviceStudyResult>& results) {
  std::vector<SignalScatterRow> rows;
  rows.reserve(results.size());
  for (const DeviceStudyResult& result : results) {
    rows.push_back(SignalScatterRow{result.device.ram_mb, result.signals_per_hour(1),
                                    result.signals_per_hour(2), result.signals_per_hour(3)});
  }
  return rows;
}

std::vector<TimeInStateRow> time_in_states(const std::vector<DeviceStudyResult>& results) {
  std::vector<TimeInStateRow> rows;
  rows.reserve(results.size());
  for (const DeviceStudyResult& result : results) {
    TimeInStateRow row;
    row.ram_mb = result.device.ram_mb;
    for (int level = 0; level < kLevels; ++level) {
      row.fraction[static_cast<std::size_t>(level)] = result.fraction_in_level(level);
    }
    rows.push_back(row);
  }
  return rows;
}

std::vector<AvailabilityViolin> availability_violins(
    const std::vector<DeviceStudyResult>& results, std::size_t top_n) {
  std::vector<const DeviceStudyResult*> order;
  order.reserve(results.size());
  for (const DeviceStudyResult& result : results) order.push_back(&result);
  std::sort(order.begin(), order.end(), [](const DeviceStudyResult* a, const DeviceStudyResult* b) {
    return a->fraction_not_normal() > b->fraction_not_normal();
  });
  std::vector<AvailabilityViolin> violins;
  for (std::size_t i = 0; i < std::min(top_n, order.size()); ++i) {
    const DeviceStudyResult& result = *order[i];
    AvailabilityViolin violin;
    violin.device_index = result.device.index;
    violin.manufacturer = result.device.manufacturer;
    violin.ram_mb = result.device.ram_mb;
    for (int level = 0; level < kLevels; ++level) {
      const auto index = static_cast<std::size_t>(level);
      violin.by_state[index] = stats::violin_summary(result.available_mb_by_state[index]);
    }
    violins.push_back(std::move(violin));
  }
  return violins;
}

TransitionStats transition_stats(const std::vector<DeviceStudyResult>& results,
                                 double min_fraction, std::size_t min_devices) {
  // Pick pressured devices: above the threshold, topped up with the most
  // pressured remainder until min_devices.
  std::vector<const DeviceStudyResult*> order;
  for (const DeviceStudyResult& result : results) order.push_back(&result);
  std::sort(order.begin(), order.end(), [](const DeviceStudyResult* a, const DeviceStudyResult* b) {
    return a->fraction_not_normal() > b->fraction_not_normal();
  });
  std::vector<const DeviceStudyResult*> chosen;
  for (const DeviceStudyResult* result : order) {
    if (result->fraction_not_normal() > min_fraction || chosen.size() < min_devices) {
      chosen.push_back(result);
    }
  }

  TransitionStats stats;
  stats.devices_used = chosen.size();
  std::array<std::vector<double>, kLevels> dwell_pool;
  for (const DeviceStudyResult* result : chosen) {
    for (int from = 0; from < kLevels; ++from) {
      const auto f = static_cast<std::size_t>(from);
      for (int to = 0; to < kLevels; ++to) {
        stats.counts[f][static_cast<std::size_t>(to)] +=
            result->transitions[f][static_cast<std::size_t>(to)];
      }
      dwell_pool[f].insert(dwell_pool[f].end(), result->dwell_seconds[f].begin(),
                           result->dwell_seconds[f].end());
    }
  }
  for (int from = 0; from < kLevels; ++from) {
    const auto f = static_cast<std::size_t>(from);
    std::uint64_t total = 0;
    for (int to = 0; to < kLevels; ++to) total += stats.counts[f][static_cast<std::size_t>(to)];
    if (total > 0) {
      for (int to = 0; to < kLevels; ++to) {
        stats.percent[f][static_cast<std::size_t>(to)] =
            100.0 * static_cast<double>(stats.counts[f][static_cast<std::size_t>(to)]) /
            static_cast<double>(total);
      }
    }
    stats.dwell[f] = stats::box_stats(dwell_pool[f]);
  }
  return stats;
}

StudySummary summarize(const std::vector<DeviceStudyResult>& results) {
  StudySummary summary;
  summary.devices = results.size();
  if (results.empty()) return summary;
  const double n = static_cast<double>(results.size());
  std::size_t util60 = 0;
  std::size_t util75 = 0;
  std::size_t any_signal = 0;
  std::size_t crit10 = 0;
  std::size_t over70 = 0;
  std::size_t time50 = 0;
  std::size_t time2 = 0;
  for (const DeviceStudyResult& result : results) {
    if (result.median_utilization >= 0.60) ++util60;
    if (result.median_utilization > 0.75) ++util75;
    if (result.total_signals_per_hour() >= 1.0) ++any_signal;
    if (result.signals_per_hour(3) > 10.0) ++crit10;
    if (result.total_signals_per_hour() > 70.0) ++over70;
    if (result.fraction_not_normal() > 0.50) ++time50;
    if (result.fraction_not_normal() >= 0.02) ++time2;
  }
  summary.percent_median_util_ge_60 = 100.0 * static_cast<double>(util60) / n;
  summary.percent_median_util_gt_75 = 100.0 * static_cast<double>(util75) / n;
  summary.percent_with_any_signal_per_hour = 100.0 * static_cast<double>(any_signal) / n;
  summary.percent_with_10_critical_per_hour = 100.0 * static_cast<double>(crit10) / n;
  summary.percent_over_70_signals_per_hour = 100.0 * static_cast<double>(over70) / n;
  summary.percent_time50_high_pressure = 100.0 * static_cast<double>(time50) / n;
  summary.percent_time2_high_pressure = 100.0 * static_cast<double>(time2) / n;
  return summary;
}

}  // namespace mvqoe::study
