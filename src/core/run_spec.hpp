// Per-session video run result. Scenario runs (scenario/driver.hpp)
// report one of these per video workload; kept in core so results can
// be named below the scenario layer.
#pragma once

#include <cstdint>
#include <string>

#include "mem/types.hpp"
#include "qoe/metrics.hpp"
#include "video/session.hpp"

namespace mvqoe::core {

/// How a run ended — structured partial results instead of a bare crash
/// bit, so fault scenarios can assert on the exact failure mode.
enum class RunStatus : std::uint8_t {
  Completed,  // played to the end (possibly after absorbed kills)
  Crashed,    // client killed terminally (no relaunch budget left)
  Aborted,    // unrecoverable download failure (retry budget exhausted)
  TimedOut,   // did not finish within the horizon (unplayable/livelock)
};

const char* to_string(RunStatus status) noexcept;

struct VideoRunResult {
  qoe::RunOutcome outcome;
  video::SessionMetrics metrics;
  RunStatus status = RunStatus::Completed;
  std::string failure_reason;
  /// Pressure level observed when playback started.
  mem::PressureLevel start_level = mem::PressureLevel::Normal;
};

}  // namespace mvqoe::core
