// Field-study results and their cross-device aggregation: the queries
// behind Figures 1-6 and the §3 rows of Table 1. The per-device results
// come from the usage model (fleet::simulate_study_device), the
// SignalCapturer counterpart: the same observations the paper's app
// logged every second (available memory, current pressure state) plus
// the statistics derived from them.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/summary.hpp"
#include "study/population.hpp"

namespace mvqoe::study {

constexpr int kLevels = 4;  // Normal, Moderate, Low, Critical

struct DeviceStudyResult {
  StudyDevice device;
  double hours_logged = 0.0;

  /// Reservoir-sampled per-second RAM utilization (1 - available/total).
  std::vector<double> utilization_samples;
  double median_utilization = 0.0;

  /// Trim signals received, by level (index 1..3 meaningful).
  std::array<std::uint64_t, kLevels> signals{};
  /// Seconds spent with each level as the current state.
  std::array<double, kLevels> seconds_in_level{};

  /// Fig 6: transitions[from][to] counts, and dwell-time samples (s) in
  /// `from` before each transition.
  std::array<std::array<std::uint64_t, kLevels>, kLevels> transitions{};
  std::array<std::vector<double>, kLevels> dwell_seconds;

  /// Fig 5: available memory (MB) sampled while in each state.
  std::array<std::vector<double>, kLevels> available_mb_by_state;

  double signals_per_hour(int level) const noexcept;
  double total_signals_per_hour() const noexcept;
  double fraction_in_level(int level) const noexcept;
  double fraction_not_normal() const noexcept;
};

/// Data-cleaning rule (§3): keep devices with more than `min_hours` of
/// interactive data.
std::vector<DeviceStudyResult> clean(std::vector<DeviceStudyResult> results,
                                     double min_hours = 10.0);

/// Fig 1: per-activity histogram of 1-5 ratings across users.
struct UsageHeatmap {
  /// counts[activity][rating-1]; activities: games, music, video,
  /// multitask(>1), multitask(>2).
  std::array<std::array<int, 5>, 5> counts{};
  static const char* activity_name(int activity) noexcept;
};
UsageHeatmap usage_heatmap(const std::vector<StudyDevice>& population);

/// Fig 2: sorted median utilizations (plot as empirical CDF).
std::vector<stats::CdfPoint> utilization_cdf(const std::vector<DeviceStudyResult>& results);

/// Fig 3: per-device scatter rows (RAM size vs signals/hour per level).
struct SignalScatterRow {
  std::int64_t ram_mb = 0;
  double moderate_per_hour = 0.0;
  double low_per_hour = 0.0;
  double critical_per_hour = 0.0;
};
std::vector<SignalScatterRow> signal_scatter(const std::vector<DeviceStudyResult>& results);

/// Fig 4: per-device fraction of time in each pressure state vs RAM.
struct TimeInStateRow {
  std::int64_t ram_mb = 0;
  std::array<double, kLevels> fraction{};
};
std::vector<TimeInStateRow> time_in_states(const std::vector<DeviceStudyResult>& results);

/// Fig 5: the `top_n` devices by time spent out of Normal, with their
/// per-state available-memory distributions summarized as violins.
struct AvailabilityViolin {
  int device_index = 0;
  std::string manufacturer;
  std::int64_t ram_mb = 0;
  std::array<stats::ViolinSummary, kLevels> by_state;
};
std::vector<AvailabilityViolin> availability_violins(
    const std::vector<DeviceStudyResult>& results, std::size_t top_n = 5);

/// Fig 6: transition percentages and dwell-time boxes, aggregated over
/// the devices that spent more than `min_fraction` of time out of Normal
/// (the paper uses the nine devices above 30%, falling back to the most
/// pressured ones available).
struct TransitionStats {
  /// percent[from][to]: share of transitions out of `from` landing in
  /// `to` (rows sum to 100 where any transitions exist).
  std::array<std::array<double, kLevels>, kLevels> percent{};
  std::array<std::array<std::uint64_t, kLevels>, kLevels> counts{};
  /// Dwell-time five-number summaries per from-state (seconds).
  std::array<stats::BoxStats, kLevels> dwell;
  std::size_t devices_used = 0;
};
TransitionStats transition_stats(const std::vector<DeviceStudyResult>& results,
                                 double min_fraction = 0.30, std::size_t min_devices = 9);

/// Table 1 §3 rows.
struct StudySummary {
  std::size_t devices = 0;
  double percent_median_util_ge_60 = 0.0;
  double percent_median_util_gt_75 = 0.0;
  double percent_with_any_signal_per_hour = 0.0;   // >= 1 signal/h (63%)
  double percent_with_10_critical_per_hour = 0.0;  // > 10 critical/h (19%)
  double percent_over_70_signals_per_hour = 0.0;   // > 70 signals/h (6.3%)
  double percent_time50_high_pressure = 0.0;       // > 50% of time (10%)
  double percent_time2_high_pressure = 0.0;        // >= 2% of time (35%)
};
StudySummary summarize(const std::vector<DeviceStudyResult>& results);

}  // namespace mvqoe::study
