#include "qoe/mos.hpp"

#include <algorithm>
#include <cmath>

namespace mvqoe::qoe {

double MosModel::annoyance(double drop_rate) const noexcept {
  // Logistic with a floor shift so ~0% drops map to ~0 annoyance.
  const double raw = 1.0 / (1.0 + std::exp(-(drop_rate - midpoint_drop_rate) / steepness));
  const double floor = 1.0 / (1.0 + std::exp(midpoint_drop_rate / steepness));
  return std::clamp((raw - floor) / (1.0 - floor), 0.0, 1.0);
}

int MosModel::differential_score(double reference_drop_rate, double degraded_drop_rate,
                                 stats::Rng& rng) const noexcept {
  const double difference =
      std::max(0.0, annoyance(degraded_drop_rate) - annoyance(reference_drop_rate));
  const double score = 5.0 - 4.0 * difference + rng.normal(0.0, rater_sigma);
  return static_cast<int>(std::clamp(std::lround(score), 1L, 5L));
}

std::size_t SurveyResult::count(int score) const noexcept {
  std::size_t n = 0;
  for (const int s : scores) {
    if (s == score) ++n;
  }
  return n;
}

double SurveyResult::mean() const noexcept {
  if (scores.empty()) return 0.0;
  double total = 0.0;
  for (const int s : scores) total += s;
  return total / static_cast<double>(scores.size());
}

SurveyResult run_dmos_survey(const MosModel& model, double reference_drop_rate,
                             double degraded_drop_rate, int raters, std::uint64_t seed) {
  SurveyResult result;
  result.scores.reserve(static_cast<std::size_t>(raters));
  for (int i = 0; i < raters; ++i) {
    stats::Rng rng(stats::derive_seed(seed, static_cast<std::uint64_t>(i)));
    result.scores.push_back(
        model.differential_score(reference_drop_rate, degraded_drop_rate, rng));
  }
  return result;
}

}  // namespace mvqoe::qoe
