// Simulated time. The whole suite runs on a single discrete-event clock
// with microsecond resolution: fine enough to model scheduler timeslices
// (milliseconds) and per-frame vsync deadlines (16.67 ms at 60 Hz) without
// rounding artifacts, coarse enough that multi-day field-study simulations
// fit comfortably in 64 bits.
#pragma once

#include <cstdint>

namespace mvqoe::sim {

/// Absolute simulated time or a duration, in microseconds.
using Time = std::int64_t;

constexpr Time kNever = INT64_MAX;

constexpr Time usec(std::int64_t n) noexcept { return n; }
constexpr Time msec(std::int64_t n) noexcept { return n * 1000; }
constexpr Time sec(std::int64_t n) noexcept { return n * 1'000'000; }
constexpr Time minutes(std::int64_t n) noexcept { return n * 60'000'000; }
constexpr Time hours(std::int64_t n) noexcept { return n * 3'600'000'000LL; }

constexpr double to_seconds(Time t) noexcept { return static_cast<double>(t) * 1e-6; }
constexpr double to_millis(Time t) noexcept { return static_cast<double>(t) * 1e-3; }
constexpr Time from_seconds(double s) noexcept { return static_cast<Time>(s * 1e6); }

/// static_cast<std::int64_t>(std::ceil(x)), exactly, for any finite `x`
/// whose ceiling fits in 64 bits, without the libm call std::ceil
/// compiles to on the baseline x86-64 target. Truncation already rounds
/// a negative `x` up; a positive fraction needs one more.
constexpr std::int64_t ceil_int(double x) noexcept {
  const auto truncated = static_cast<std::int64_t>(x);
  return truncated + (static_cast<double>(truncated) < x ? 1 : 0);
}

}  // namespace mvqoe::sim
