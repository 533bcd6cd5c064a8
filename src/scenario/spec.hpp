// Declarative scenario description (DESIGN.md §11).
//
// A ScenarioSpec is the single source of truth for one simulated device
// world: the device (named paper family or explicit profile), the
// pressure regime, the world/seed scheme, and an ordered list of
// WorkloadSpecs — each one actor on the device. Benches, the shared-seed
// sweep, tools/mvqoe_replay and the MVQS blob all consume this one type
// instead of re-assembling (family, cell, state, seed) tuples by hand.
//
// A single-video run — every §4 experiment — is single_video(), with
// device_override / asset_override for profiles and assets outside the
// paper families. Multi-session scenarios — two players contending,
// player + memory hog — are just longer workload lists on the same
// driver.
#pragma once

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/device.hpp"
#include "fault/fault_injector.hpp"
#include "mem/policy.hpp"
#include "net/cc.hpp"
#include "snapshot/bytes.hpp"
#include "video/session.hpp"

namespace mvqoe::scenario {

/// One video playback session. Serializable except for the runtime-only
/// hooks (abr / asset_override / recovery) — save_scenario throws if a
/// spec carrying those is recorded.
struct VideoWorkloadSpec {
  std::string label = "video";
  int height = 1080;
  int fps = 30;
  int duration_s = 60;
  /// Player platform; unset = the scenario family's platform.
  std::optional<video::PlayerPlatform> platform;
  /// Video RNG stream for this session.
  std::uint64_t seed = 1;
  /// Fault script armed at video start (times relative to video start;
  /// kill entries with pid 0 target this session's client).
  fault::FaultPlan fault_plan;
  // --- Runtime-only knobs (not serializable) ---
  /// Asset override; unset = dubai_flow_motion(duration_s).
  std::optional<video::VideoAsset> asset_override;
  video::AbrPolicy* abr = nullptr;
  std::optional<video::RecoveryConfig> recovery;
};

/// A cohort of organically-launched background apps (paper §4.3) beyond
/// the scenario-level organic_background_apps count.
struct BackgroundAppsWorkloadSpec {
  std::string label = "background";
  int count = 8;
};

/// An extra MP-Simulator-style pressure inducer (memory hog) on top of
/// the scenario-level pressure state.
struct PressureWorkloadSpec {
  std::string label = "pressure";
  mem::PressureLevel target = mem::PressureLevel::Moderate;
};

/// Competing traffic through the shared bottleneck (meaningful when the
/// scenario's NetSpec selects a congestion controller): `bulk_flows`
/// long-lived chunked downloads that restart as soon as a chunk lands,
/// plus `onoff_flows` flows alternating `on_s` seconds of transfer with
/// `off_s` seconds of silence — the bursty competitor that perturbs
/// delay-based controllers hardest.
struct CrossTrafficWorkloadSpec {
  std::string label = "cross";
  int bulk_flows = 1;
  int onoff_flows = 0;
  int on_s = 2;
  int off_s = 2;
  std::uint64_t chunk_bytes = 2 * 1024 * 1024;
  /// Phase-jitter RNG stream (start offsets per flow).
  std::uint64_t seed = 1;
};

using WorkloadSpec = std::variant<VideoWorkloadSpec, BackgroundAppsWorkloadSpec,
                                  PressureWorkloadSpec, CrossTrafficWorkloadSpec>;

/// Scenario families map to the paper's evaluation setups:
///   fig09 / fig16 / table1 — Nokia 1, Firefox
///   fig11                  — Nexus 5, Firefox
///   fig18                  — Nexus 5, ExoPlayer
///   fig19                  — Nexus 5, Chrome
struct ScenarioSpec {
  /// Paper family; "" = custom (device_override required).
  std::string family = "fig16";
  /// Explicit device profile; wins over the family's preset.
  std::optional<core::DeviceProfile> device_override;
  /// Pressure regime established before workloads start: synthetic
  /// MP-Simulator induction to `state`, or — when
  /// organic_background_apps > 0 — organic background-app churn.
  mem::PressureLevel state = mem::PressureLevel::Normal;
  int organic_background_apps = 0;
  /// World stream seed (boot + pressure). Also the video stream of
  /// single_video() scenarios.
  std::uint64_t seed = 1;
  /// Override the world stream when it must differ from `seed` (the
  /// shared-seed sweep's groups: one world stream, a video stream per
  /// cell).
  std::optional<std::uint64_t> world_seed;
  /// Memory reclaim/kill policy the world runs (mem/policy.hpp). The
  /// default (baseline) serializes as SCEN v2, byte-identical to
  /// pre-policy blobs; anything else bumps the section to v3.
  mem::MemPolicySpec mem_policy;
  /// Congestion-control spec for the link (net/cc.hpp). The default
  /// (fifo, no params) keeps the serial link and — together with an
  /// absence of cross-traffic workloads — the v2/v3 SCEN encoding;
  /// anything else bumps the section to v4.
  net::NetSpec net;
  std::vector<WorkloadSpec> workloads;
};

/// All recognised family names, in canonical order.
const std::vector<std::string>& scenario_families();

/// Device / platform resolution. Throws std::runtime_error for an
/// unknown family (and for family == "" without a device_override).
core::DeviceProfile device_for(const ScenarioSpec& scen);
video::PlayerPlatform platform_for(const ScenarioSpec& scen, const VideoWorkloadSpec& video);

/// One video session of `duration_s` seconds whose stream follows the
/// scenario seed — the paper's single-video run (and the record/replay
/// tuple).
ScenarioSpec single_video(std::string family, int height, int fps, int duration_s,
                          mem::PressureLevel state, std::uint64_t seed,
                          fault::FaultPlan fault_plan = {});

/// Video stream for session k of a multi-session (contention) scenario
/// seeded with `run_seed`.
std::uint64_t contention_session_seed(std::uint64_t run_seed, std::size_t session) noexcept;

/// The i-th video workload (throws if out of range) — convenience for
/// retargeting cells and asserting on loaded specs.
VideoWorkloadSpec& video_spec(ScenarioSpec& scen, std::size_t index = 0);
const VideoWorkloadSpec& video_spec(const ScenarioSpec& scen, std::size_t index = 0);
std::size_t video_count(const ScenarioSpec& scen);

/// SCEN blob section. save_scenario writes version 2 (workload lists);
/// load_scenario accepts both v2 and the legacy v1 single-video layout.
/// save_scenario throws std::invalid_argument for specs that carry
/// non-serializable runtime hooks (abr, overrides, device_override).
/// The v2+ header keeps the byte of the retired watchdog flag: it is
/// written as 0, and load_scenario throws when it reads 1.
void save_scenario(snapshot::ByteWriter& w, const ScenarioSpec& scen);
ScenarioSpec load_scenario(snapshot::ByteReader& r);

void save_fault_plan(snapshot::ByteWriter& w, const fault::FaultPlan& plan);
fault::FaultPlan load_fault_plan(snapshot::ByteReader& r);

}  // namespace mvqoe::scenario
