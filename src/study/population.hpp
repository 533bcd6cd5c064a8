// Synthetic device/user population for the §3 field study.
//
// The paper recruited 80 users (mostly university students/staff),
// spanning 12 manufacturers and 1-8 GB of RAM, logged ~9950 hours of
// memory data (~124 h/device), and kept the 48 devices with > 10 h of
// interactive (screen-on) data. The generator reproduces those marginals;
// everything downstream (signal rates, dwell times, Fig 2-6
// distributions) then *emerges* from running each device's usage model
// through the memory-management engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "stats/rng.hpp"

namespace mvqoe::study {

struct UserProfile {
  /// Survey answers, 1-5 (Fig 1): how often the user plays games,
  /// listens to music, streams video.
  int rating_games = 1;
  int rating_music = 3;
  int rating_video = 4;
  /// Multitasking ratings: running with >1 / >2 background apps.
  int rating_multitask_1 = 3;
  int rating_multitask_2 = 2;

  /// Derived behaviour knobs.
  double app_switches_per_minute = 1.0;
  int max_open_apps = 4;
};

struct StudyDevice {
  int index = 0;
  std::string manufacturer;
  std::int64_t ram_mb = 2048;
  int cores = 4;
  double freq_ghz = 1.8;
  /// Interactive (screen-on) hours to simulate; total observation time in
  /// the paper averaged 124 h/device of which interactive is a fraction.
  double interactive_hours = 24.0;
  UserProfile user;

  core::DeviceProfile profile() const;
};

/// Draw one user's survey ratings and behaviour knobs with the Fig 1
/// marginals (video streaming most frequent, then music, then games).
/// The study and the fleet populations both draw their users here.
UserProfile sample_user(stats::Rng& rng);

/// The 12 manufacturers represented in the study population.
const std::vector<std::string>& manufacturers();

/// Generate device `i` of the population — a pure function of
/// (i, seed), so fleet shards can sample any slice of a huge population
/// without materialising all of it. For every n > i,
/// generate_population(n, seed)[i] == generate_study_device(i, seed).
StudyDevice generate_study_device(int i, std::uint64_t seed);

/// Generate `n` devices (the paper's n = 80). Marginals: RAM mix skewed
/// to 2-4 GB with low-end and flagship tails; interactive hours 4-80 (so
/// the > 10 h cleaning rule keeps roughly the paper's 48/80 fraction);
/// survey ratings with video streaming as the most frequent activity.
std::vector<StudyDevice> generate_population(int n, std::uint64_t seed);

/// A concrete pinned device model for fleet simulation (DESIGN.md §15).
/// Unlike StudyDevice — which samples per-device hardware, making every
/// world unique — a family pins ram/cores/freq exactly, so one prepared
/// world template can be shared (and CoW-forked) across every device of
/// the family.
struct FleetFamily {
  std::string name;
  std::int64_t ram_mb = 2048;
  int cores = 4;
  double freq_ghz = 1.8;
  /// Population share used as the fleet sampling weight.
  double weight = 1.0;

  core::DeviceProfile profile() const;
};

/// Fixed catalog of six pinned device models whose weights mirror the
/// study's RAM mix (skewed to 2-4 GB, low-end and flagship tails).
const std::vector<FleetFamily>& fleet_families();

}  // namespace mvqoe::study
