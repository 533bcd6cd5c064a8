#include "qoe/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace mvqoe::qoe {

void RunAggregate::add(const RunOutcome& outcome) { outcomes_.push_back(outcome); }

stats::MeanCi RunAggregate::drop_rate() const {
  std::vector<double> rates;
  rates.reserve(outcomes_.size());
  for (const RunOutcome& outcome : outcomes_) rates.push_back(outcome.drop_rate);
  return stats::mean_ci(rates);
}

stats::MeanCi RunAggregate::drop_rate_completed() const {
  std::vector<double> rates;
  for (const RunOutcome& outcome : outcomes_) {
    if (!outcome.crashed) rates.push_back(outcome.drop_rate);
  }
  return stats::mean_ci(rates);
}

double RunAggregate::crash_rate_percent() const noexcept {
  if (outcomes_.empty()) return 0.0;
  std::size_t crashed = 0;
  for (const RunOutcome& outcome : outcomes_) {
    if (outcome.crashed) ++crashed;
  }
  return 100.0 * static_cast<double>(crashed) / static_cast<double>(outcomes_.size());
}

double RunAggregate::relaunch_rate_percent() const noexcept {
  if (outcomes_.empty()) return 0.0;
  std::size_t relaunched = 0;
  for (const RunOutcome& outcome : outcomes_) {
    if (outcome.relaunches > 0) ++relaunched;
  }
  return 100.0 * static_cast<double>(relaunched) / static_cast<double>(outcomes_.size());
}

stats::MeanCi RunAggregate::rebuffer_events() const {
  std::vector<double> values;
  values.reserve(outcomes_.size());
  for (const RunOutcome& outcome : outcomes_) {
    values.push_back(static_cast<double>(outcome.rebuffer_events));
  }
  return stats::mean_ci(values);
}

stats::MeanCi RunAggregate::mean_pss_mb() const {
  std::vector<double> values;
  for (const RunOutcome& outcome : outcomes_) values.push_back(outcome.mean_pss_mb);
  return stats::mean_ci(values);
}

stats::MeanCi RunAggregate::peak_pss_mb() const {
  std::vector<double> values;
  for (const RunOutcome& outcome : outcomes_) values.push_back(outcome.peak_pss_mb);
  return stats::mean_ci(values);
}

double RunAggregate::min_peak_pss_mb() const {
  double best = 0.0;
  bool first = true;
  for (const RunOutcome& outcome : outcomes_) {
    if (first || outcome.peak_pss_mb < best) best = outcome.peak_pss_mb;
    first = false;
  }
  return best;
}

double RunAggregate::max_peak_pss_mb() const {
  double best = 0.0;
  for (const RunOutcome& outcome : outcomes_) best = std::max(best, outcome.peak_pss_mb);
  return best;
}

std::string format_mean_ci(const stats::MeanCi& value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f +- %.*f", decimals, value.mean, decimals,
                value.ci95);
  return buffer;
}

}  // namespace mvqoe::qoe
