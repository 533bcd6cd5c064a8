// QoE aggregation across repeated runs. The paper repeats each
// experiment five times and reports means with 95% confidence intervals
// (§4.1); crash rates are the fraction of runs whose client was killed
// (Tables 2/3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats/summary.hpp"

namespace mvqoe::qoe {

struct RunOutcome {
  double drop_rate = 0.0;   // dropped / (dropped + presented), crashed runs
                            // counting the lost remainder as dropped
  bool crashed = false;
  /// Session ended early on an unrecoverable download failure.
  bool aborted = false;
  double mean_pss_mb = 0.0;
  double peak_pss_mb = 0.0;
  double startup_delay_s = 0.0;
  /// Recovery accounting: kills absorbed by a cold relaunch instead of a
  /// terminal crash, stalls, and the wall time lost to relaunching.
  int relaunches = 0;
  int rebuffer_events = 0;
  double relaunch_downtime_s = 0.0;
};

class RunAggregate {
 public:
  void add(const RunOutcome& outcome);

  std::size_t runs() const noexcept { return outcomes_.size(); }
  /// Mean drop rate with 95% CI across all runs.
  stats::MeanCi drop_rate() const;
  /// Mean drop rate across the runs that did NOT crash (the paper plots
  /// rendering performance and crash rate as separate panels).
  stats::MeanCi drop_rate_completed() const;
  /// Fraction of runs that crashed, in percent (Tables 2/3).
  double crash_rate_percent() const noexcept;
  /// Fraction of runs that relaunched at least once, in percent — the
  /// robustness counterpart of crash rate: kills the recovery path turned
  /// into rebuffers instead of terminal failures.
  double relaunch_rate_percent() const noexcept;
  stats::MeanCi rebuffer_events() const;
  stats::MeanCi mean_pss_mb() const;
  stats::MeanCi peak_pss_mb() const;
  double min_peak_pss_mb() const;
  double max_peak_pss_mb() const;

  const std::vector<RunOutcome>& outcomes() const noexcept { return outcomes_; }

 private:
  std::vector<RunOutcome> outcomes_;
};

/// Format "12.3 ± 1.1" for bench table cells.
std::string format_mean_ci(const stats::MeanCi& value, int decimals = 1);

}  // namespace mvqoe::qoe
