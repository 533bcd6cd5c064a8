#include "scenario/spec.hpp"

#include <stdexcept>

#include "stats/rng.hpp"

namespace mvqoe::scenario {

namespace {

struct FamilySetup {
  const char* name;
  core::DeviceProfile (*device)();
  video::PlayerPlatform platform;
};

const FamilySetup kFamilies[] = {
    {"fig09", core::nokia1, video::PlayerPlatform::Firefox},
    {"fig11", core::nexus5, video::PlayerPlatform::Firefox},
    {"fig16", core::nokia1, video::PlayerPlatform::Firefox},
    {"fig18", core::nexus5, video::PlayerPlatform::ExoPlayer},
    {"fig19", core::nexus5, video::PlayerPlatform::Chrome},
    {"table1", core::nokia1, video::PlayerPlatform::Firefox},
};

const FamilySetup& find_family(const std::string& name) {
  for (const FamilySetup& family : kFamilies) {
    if (name == family.name) return family;
  }
  throw std::runtime_error("scenario: unknown family '" + name + "'");
}

}  // namespace

const std::vector<std::string>& scenario_families() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const FamilySetup& family : kFamilies) out.emplace_back(family.name);
    return out;
  }();
  return names;
}

core::DeviceProfile device_for(const ScenarioSpec& scen) {
  if (scen.device_override.has_value()) return *scen.device_override;
  if (scen.family.empty()) {
    throw std::runtime_error("scenario: custom scenario (family == \"\") needs a device_override");
  }
  return find_family(scen.family).device();
}

video::PlayerPlatform platform_for(const ScenarioSpec& scen, const VideoWorkloadSpec& video) {
  if (video.platform.has_value()) return *video.platform;
  if (scen.family.empty()) return video::PlayerPlatform::Firefox;
  return find_family(scen.family).platform;
}

ScenarioSpec single_video(std::string family, int height, int fps, int duration_s,
                          mem::PressureLevel state, std::uint64_t seed,
                          fault::FaultPlan fault_plan) {
  ScenarioSpec scen;
  scen.family = std::move(family);
  scen.state = state;
  scen.seed = seed;
  VideoWorkloadSpec video;
  video.height = height;
  video.fps = fps;
  video.duration_s = duration_s;
  video.seed = seed;
  video.fault_plan = std::move(fault_plan);
  scen.workloads.emplace_back(std::move(video));
  return scen;
}

std::uint64_t contention_session_seed(std::uint64_t run_seed, std::size_t session) noexcept {
  std::uint64_t seed = stats::derive_seed(run_seed, 0x53455353ULL /* "SESS" */);
  return stats::derive_seed(seed, static_cast<std::uint64_t>(session) + 1);
}

VideoWorkloadSpec& video_spec(ScenarioSpec& scen, std::size_t index) {
  std::size_t seen = 0;
  for (WorkloadSpec& workload : scen.workloads) {
    if (auto* video = std::get_if<VideoWorkloadSpec>(&workload)) {
      if (seen++ == index) return *video;
    }
  }
  throw std::out_of_range("scenario: no video workload at index " + std::to_string(index));
}

const VideoWorkloadSpec& video_spec(const ScenarioSpec& scen, std::size_t index) {
  return video_spec(const_cast<ScenarioSpec&>(scen), index);
}

std::size_t video_count(const ScenarioSpec& scen) {
  std::size_t count = 0;
  for (const WorkloadSpec& workload : scen.workloads) {
    if (std::holds_alternative<VideoWorkloadSpec>(workload)) ++count;
  }
  return count;
}

namespace {

void require_serializable(const ScenarioSpec& scen) {
  if (scen.device_override.has_value()) {
    throw std::invalid_argument("scenario: device_override is not serializable — use a family");
  }
  find_family(scen.family);
  for (const WorkloadSpec& workload : scen.workloads) {
    const auto* video = std::get_if<VideoWorkloadSpec>(&workload);
    if (video == nullptr) continue;
    if (video->abr != nullptr || video->asset_override.has_value() ||
        video->recovery.has_value()) {
      throw std::invalid_argument(
          "scenario: runtime-only video knobs (abr/asset/recovery overrides) are not "
          "serializable");
    }
  }
}

}  // namespace

void save_scenario(snapshot::ByteWriter& w, const ScenarioSpec& scen) {
  require_serializable(scen);
  bool has_cross_traffic = false;
  for (const WorkloadSpec& workload : scen.workloads) {
    if (std::holds_alternative<CrossTrafficWorkloadSpec>(workload)) has_cross_traffic = true;
  }
  // v2 = workload lists; v3 appends the memory-policy spec; v4 (any
  // non-default NetSpec or a cross-traffic workload) appends the policy
  // spec (even baseline) followed by the net spec. A baseline/fifo
  // scenario still writes v2, so every pre-policy blob and fingerprint
  // stays byte-identical.
  const bool v4 = !scen.net.is_default() || has_cross_traffic;
  w.u32(v4 ? 4 : (scen.mem_policy.is_baseline() ? 2 : 3));
  w.str(scen.family);
  w.u8(static_cast<std::uint8_t>(scen.state));
  w.i32(scen.organic_background_apps);
  w.u64(scen.seed);
  w.b(scen.world_seed.has_value());
  if (scen.world_seed.has_value()) w.u64(*scen.world_seed);
  w.b(false);  // the retired watchdog flag
  w.u64(scen.workloads.size());
  for (const WorkloadSpec& workload : scen.workloads) {
    if (const auto* video = std::get_if<VideoWorkloadSpec>(&workload)) {
      w.u8(0);
      w.str(video->label);
      w.i32(video->height);
      w.i32(video->fps);
      w.i32(video->duration_s);
      w.b(video->platform.has_value());
      if (video->platform.has_value()) w.u8(static_cast<std::uint8_t>(*video->platform));
      w.u64(video->seed);
      save_fault_plan(w, video->fault_plan);
    } else if (const auto* apps = std::get_if<BackgroundAppsWorkloadSpec>(&workload)) {
      w.u8(1);
      w.str(apps->label);
      w.i32(apps->count);
    } else if (const auto* pressure = std::get_if<PressureWorkloadSpec>(&workload)) {
      w.u8(2);
      w.str(pressure->label);
      w.u8(static_cast<std::uint8_t>(pressure->target));
    } else {
      const auto& cross = std::get<CrossTrafficWorkloadSpec>(workload);
      w.u8(3);
      w.str(cross.label);
      w.i32(cross.bulk_flows);
      w.i32(cross.onoff_flows);
      w.i32(cross.on_s);
      w.i32(cross.off_s);
      w.u64(cross.chunk_bytes);
      w.u64(cross.seed);
    }
  }
  if (v4) {
    mem::save_policy_spec(w, scen.mem_policy);
    net::save_net_spec(w, scen.net);
  } else if (!scen.mem_policy.is_baseline()) {
    mem::save_policy_spec(w, scen.mem_policy);
  }
}

ScenarioSpec load_scenario(snapshot::ByteReader& r) {
  const std::uint32_t version = r.u32();
  if (version == 1) {
    // Legacy tuple: (family, height, fps, duration, state, seed, plan).
    ScenarioSpec scen;
    scen.family = r.str();
    const int height = r.i32();
    const int fps = r.i32();
    const int duration_s = r.i32();
    scen.state = r.enum8("snapshot: SCEN pressure state", mem::PressureLevel::Critical);
    scen.seed = r.u64();
    fault::FaultPlan plan = load_fault_plan(r);
    find_family(scen.family);  // validate eagerly, before any sim is built
    return single_video(scen.family, height, fps, duration_s, scen.state, scen.seed,
                        std::move(plan));
  }
  if (version < 2 || version > 4) throw std::runtime_error("snapshot: unsupported SCEN version");
  ScenarioSpec scen;
  scen.family = r.str();
  scen.state = r.enum8("snapshot: SCEN pressure state", mem::PressureLevel::Critical);
  scen.organic_background_apps = r.i32();
  scen.seed = r.u64();
  if (r.b()) scen.world_seed = r.u64();
  // A blob that set the retired watchdog flag recorded the watchdog's
  // periodic engine events in its digest trail; no run schedules them
  // any more, so such a trail could never verify.
  if (r.b()) {
    throw std::runtime_error("snapshot: SCEN sets the retired watchdog flag; its digest trail "
                             "holds watchdog engine events that no run schedules any more");
  }
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint8_t kind = r.u8();
    if (kind == 0) {
      VideoWorkloadSpec video;
      video.label = r.str();
      video.height = r.i32();
      video.fps = r.i32();
      video.duration_s = r.i32();
      if (r.b()) {
        video.platform = r.enum8("snapshot: SCEN video platform", video::PlayerPlatform::ExoPlayer);
      }
      video.seed = r.u64();
      video.fault_plan = load_fault_plan(r);
      scen.workloads.emplace_back(std::move(video));
    } else if (kind == 1) {
      BackgroundAppsWorkloadSpec apps;
      apps.label = r.str();
      apps.count = r.i32();
      scen.workloads.emplace_back(std::move(apps));
    } else if (kind == 2) {
      PressureWorkloadSpec pressure;
      pressure.label = r.str();
      pressure.target = r.enum8("snapshot: SCEN pressure target", mem::PressureLevel::Critical);
      scen.workloads.emplace_back(std::move(pressure));
    } else if (kind == 3 && version >= 4) {
      CrossTrafficWorkloadSpec cross;
      cross.label = r.str();
      cross.bulk_flows = r.i32();
      cross.onoff_flows = r.i32();
      cross.on_s = r.i32();
      cross.off_s = r.i32();
      cross.chunk_bytes = r.u64();
      cross.seed = r.u64();
      scen.workloads.emplace_back(std::move(cross));
    } else {
      throw std::runtime_error("snapshot: unknown workload kind in SCEN section");
    }
  }
  if (version >= 3) {
    scen.mem_policy = mem::load_policy_spec(r);
    mem::validate_policy_spec(scen.mem_policy);
  }
  if (version >= 4) {
    scen.net = net::load_net_spec(r);
    net::validate_net_spec(scen.net);
  }
  find_family(scen.family);  // validate eagerly, before any sim is built
  return scen;
}

void save_fault_plan(snapshot::ByteWriter& w, const fault::FaultPlan& plan) {
  w.u32(1);  // sub-record version
  w.u64(plan.link_outages.size());
  for (const fault::LinkOutage& o : plan.link_outages) {
    w.i64(o.at);
    w.i64(o.duration);
  }
  w.u64(plan.link_rate_steps.size());
  for (const fault::LinkRateStep& s : plan.link_rate_steps) {
    w.i64(s.at);
    w.f64(s.rate_mbps);
  }
  w.u64(plan.storage_degradations.size());
  for (const fault::StorageDegradation& d : plan.storage_degradations) {
    w.i64(d.at);
    w.i64(d.duration);
    w.f64(d.latency_multiplier);
    w.f64(d.error_rate);
  }
  w.u64(plan.thermal_windows.size());
  for (const fault::ThermalWindow& t : plan.thermal_windows) {
    w.i64(t.at);
    w.i64(t.duration);
    w.f64(t.speed_scale);
  }
  w.u64(plan.kills.size());
  for (const fault::TargetedKill& k : plan.kills) {
    w.i64(k.at);
    w.u32(k.pid);
  }
  w.b(plan.gilbert_elliott.enabled);
  w.i64(plan.gilbert_elliott.mean_good);
  w.i64(plan.gilbert_elliott.mean_bad);
  w.f64(plan.gilbert_elliott.good_rate_mbps);
  w.f64(plan.gilbert_elliott.bad_rate_mbps);
  w.f64(plan.gilbert_elliott.bad_outage_probability);
  w.u64(plan.seed);
}

fault::FaultPlan load_fault_plan(snapshot::ByteReader& r) {
  const std::uint32_t version = r.u32();
  if (version != 1) throw std::runtime_error("snapshot: unsupported fault-plan version");
  fault::FaultPlan plan;
  // Each list is sized only after its count passed r.count(count, the
  // bytes one entry encodes to).
  plan.link_outages.resize(r.count(r.u64(), 16));
  for (fault::LinkOutage& o : plan.link_outages) {
    o.at = r.i64();
    o.duration = r.i64();
  }
  plan.link_rate_steps.resize(r.count(r.u64(), 16));
  for (fault::LinkRateStep& s : plan.link_rate_steps) {
    s.at = r.i64();
    s.rate_mbps = r.f64();
  }
  plan.storage_degradations.resize(r.count(r.u64(), 32));
  for (fault::StorageDegradation& d : plan.storage_degradations) {
    d.at = r.i64();
    d.duration = r.i64();
    d.latency_multiplier = r.f64();
    d.error_rate = r.f64();
  }
  plan.thermal_windows.resize(r.count(r.u64(), 24));
  for (fault::ThermalWindow& t : plan.thermal_windows) {
    t.at = r.i64();
    t.duration = r.i64();
    t.speed_scale = r.f64();
  }
  plan.kills.resize(r.count(r.u64(), 12));
  for (fault::TargetedKill& k : plan.kills) {
    k.at = r.i64();
    k.pid = r.u32();
  }
  plan.gilbert_elliott.enabled = r.b();
  plan.gilbert_elliott.mean_good = r.i64();
  plan.gilbert_elliott.mean_bad = r.i64();
  plan.gilbert_elliott.good_rate_mbps = r.f64();
  plan.gilbert_elliott.bad_rate_mbps = r.f64();
  plan.gilbert_elliott.bad_outage_probability = r.f64();
  plan.seed = r.u64();
  return plan;
}

}  // namespace mvqoe::scenario
