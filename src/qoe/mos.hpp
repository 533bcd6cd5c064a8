// Opinion-score model for the paper's 99-participant survey (§4.3,
// Fig 10). Participants watched the same 240p60 clip twice — once at
// ~3% frame drops (Normal) and once at ~35% (Moderate pressure) — and
// rated the *relative* experience on 1..5 (5 = "no noticeable
// difference", 1 = "second video very annoying").
//
// The model: stutter annoyance is a logistic function of the drop rate
// (imperceptible below a few percent, saturating above ~50%); a rater's
// differential score is 5 minus the annoyance difference scaled to the
// 4-point range, plus per-rater sensitivity noise, rounded and clamped.
// Calibrated so the (3%, 35%) pair regenerates Fig 10's shape: the vast
// majority notice the difference, with ~60% of raters at 1-2.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/histogram.hpp"
#include "stats/rng.hpp"

namespace mvqoe::qoe {

struct MosModel {
  /// Logistic midpoint / steepness of annoyance vs drop rate.
  double midpoint_drop_rate = 0.22;
  double steepness = 0.10;
  /// Per-rater sensitivity noise (standard deviation, score units).
  double rater_sigma = 0.95;

  /// Annoyance in [0,1] for a given frame-drop fraction.
  double annoyance(double drop_rate) const noexcept;
  /// Differential MOS: rate clip B relative to reference clip A.
  int differential_score(double reference_drop_rate, double degraded_drop_rate,
                         stats::Rng& rng) const noexcept;
};

/// Simulate the paper's survey: `raters` participants rate the
/// (reference, degraded) pair; returns the 1..5 score histogram.
struct SurveyResult {
  std::vector<int> scores;                 // per rater
  std::size_t count(int score) const noexcept;
  double mean() const noexcept;
};
SurveyResult run_dmos_survey(const MosModel& model, double reference_drop_rate,
                             double degraded_drop_rate, int raters, std::uint64_t seed);

}  // namespace mvqoe::qoe
