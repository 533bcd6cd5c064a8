#include "fleet/device_session.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "net/link.hpp"
#include "proc/app_catalog.hpp"
#include "runner/batch.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace mvqoe::fleet {

FleetWorld::FleetWorld(const core::DeviceProfile& profile, const mem::MemPolicySpec& mem_policy)
    : engine(), memory(engine, profile.memory, mem_policy), am(memory) {}

namespace {

const study::FleetFamily& family_at(std::uint32_t family) {
  const auto& families = study::fleet_families();
  if (family >= families.size()) throw std::runtime_error("fleet: family index out of range");
  return families[family];
}

void boot(FleetWorld& world, const core::DeviceProfile& profile) {
  world.am.boot(profile.system_scale, profile.baseline_cached);
  world.am.enable_respawn(world.engine, profile.baseline_cached);
}

/// The usage model: `seconds` of one user's app launches, switches and
/// closes on a booted world, drawn on `rng`. Each second it advances the
/// engine, draws the user's action, grows the foreground app, counts the
/// level's dwell and transitions into `obs`, then calls
/// `sample(second, level)`, which may read memory state and draw on `rng`.
template <class Sampler>
void run_usage(FleetWorld& world, const study::UserProfile& user, std::int64_t seconds,
               const net::NetSpec& net, stats::Rng& rng, DeviceObservations& obs,
               Sampler&& sample) {
  sim::Engine& engine = world.engine;
  mem::MemoryManager& memory = world.memory;
  proc::ActivityManager& am = world.am;

  memory.subscribe_trim([&obs](mem::PressureLevel level) {
    ++obs.signals[static_cast<std::size_t>(level)];
  });

  std::unordered_map<proc::ProcessId, proc::AppSpec> user_apps;
  std::vector<proc::ProcessId> open_order;
  const double action_prob = user.app_switches_per_minute / 60.0;

  auto pick_app = [&]() -> proc::AppSpec {
    // Activity ratings weight the choice: video streaming first.
    const double video_w = static_cast<double>(user.rating_video);
    const double music_w = static_cast<double>(user.rating_music) * 0.5;
    const double game_w = static_cast<double>(user.rating_games) * 0.4;
    const double social_w = 4.0;
    const std::size_t kind = rng.weighted_index({video_w, music_w, game_w, social_w});
    switch (kind) {
      case 0: return proc::media_apps()[static_cast<std::size_t>(rng.uniform_int(0, 1))];
      case 1: return proc::media_apps()[2];
      case 2: {
        const auto& games = proc::game_apps();
        return games[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(games.size()) - 1))];
      }
      default: {
        const auto& apps = proc::top_free_apps();
        return apps[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(apps.size()) - 1))];
      }
    }
  };

  auto cleanup_dead = [&] {
    open_order.erase(std::remove_if(open_order.begin(), open_order.end(),
                                    [&](proc::ProcessId pid) {
                                      if (memory.registry().alive(pid)) return false;
                                      user_apps.erase(pid);
                                      return true;
                                    }),
                     open_order.end());
  };

  // Congestion-controlled network duty (--cc fleets): the device gets
  // its own bottleneck link and the foreground app's feed growth is
  // gated on the link actually delivering a feed chunk — a slow or
  // lossy network starves the growth that drives memory pressure. The
  // fifo default constructs no link and leaves the session bit-identical
  // to pre-cc fleets.
  std::unique_ptr<net::Link> link;
  net::TransferId net_fetch = net::kInvalidTransfer;
  bool net_fed = true;
  if (!net.is_default()) {
    link = std::make_unique<net::Link>(engine, net::LinkConfig{}, net);
    net_fed = false;
  }

  mem::PressureLevel previous_level = memory.level();
  sim::Time state_entered = engine.now();

  for (std::int64_t second = 0; second < seconds; ++second) {
    engine.run_until(engine.now() + sim::sec(1));
    cleanup_dead();

    if (rng.bernoulli(action_prob)) {
      const double action = rng.uniform();
      if (action < 0.45 || open_order.empty()) {
        const proc::AppSpec app = pick_app();
        const proc::ProcessId pid = am.launch(app);
        user_apps[pid] = app;
        open_order.push_back(pid);
      } else if (action < 0.85) {
        const auto index = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(open_order.size()) - 1));
        am.bring_to_foreground(open_order[index]);
      } else {
        am.close(open_order.front());
        user_apps.erase(open_order.front());
        open_order.erase(open_order.begin());
      }
      // Multitasking cap: close the oldest background apps beyond it.
      while (static_cast<int>(open_order.size()) > user.max_open_apps) {
        am.close(open_order.front());
        user_apps.erase(open_order.front());
        open_order.erase(open_order.begin());
      }
    }

    // Foreground app grows (feeds, buffers) — gated on the network
    // duty's chunk delivery when a congestion-controlled link is in play.
    const proc::ProcessId foreground = am.foreground();
    if (foreground != 0) {
      const auto it = user_apps.find(foreground);
      if (it != user_apps.end() && it->second.growth_pages_per_sec > 0) {
        if (link != nullptr) {
          if (net_fetch == net::kInvalidTransfer) {
            // One ~256 KiB feed chunk per growth appetite; its delivery
            // unlocks the next growth tick.
            net_fetch = link->transfer(256 * 1024, [&net_fetch, &net_fed](bool ok) {
              net_fetch = net::kInvalidTransfer;
              net_fed = ok;
            });
          }
          if (net_fed) {
            net_fed = false;
            memory.alloc_anon(foreground, it->second.growth_pages_per_sec, 0, nullptr);
          }
        } else {
          memory.alloc_anon(foreground, it->second.growth_pages_per_sec, 0, nullptr);
        }
      }
    }

    const auto level = memory.level();
    const auto level_index = static_cast<std::size_t>(level);
    obs.seconds_in_level[level_index] += 1;
    if (level != previous_level) {
      const auto from = static_cast<std::size_t>(previous_level);
      obs.transitions[from][level_index] += 1;
      obs.dwell.emplace_back(static_cast<std::uint8_t>(from),
                             sim::to_seconds(engine.now() - state_entered));
      previous_level = level;
      state_entered = engine.now();
    }
    sample(second, level);
  }
  // The callback captures stack locals; make sure it can never fire
  // after this frame unwinds (the engine is done, but be explicit).
  if (link != nullptr && net_fetch != net::kInvalidTransfer) link->cancel(net_fetch);
}

/// Algorithm R: keep the first `capacity` of `seen` values, then replace
/// a uniform slot with probability capacity / seen.
void reservoir_add(std::vector<double>& sink, std::size_t capacity, std::uint64_t seen,
                   double value, stats::Rng& rng) {
  if (sink.size() < capacity) {
    sink.push_back(value);
    return;
  }
  const auto slot =
      static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(seen) - 1));
  if (slot < capacity) sink[static_cast<std::size_t>(slot)] = value;
}

}  // namespace

void prepare_world(FleetWorld& world, std::uint32_t family, std::uint32_t cohort,
                   const FleetSpec& spec) {
  const study::FleetFamily& fam = family_at(family);
  boot(world, fam.profile());

  stats::Rng rng(fleet_world_seed(spec.seed, family, cohort));
  const auto& pool = proc::top_free_apps();
  const int preload = cohort_preload_apps(cohort, fam.ram_mb);
  for (int i = 0; i < preload; ++i) {
    proc::AppSpec app = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    app.name += ".preload" + std::to_string(i);
    world.am.add_cached(app);
  }
  world.engine.run_until(world.engine.now() + sim::sec(spec.warmup_s));
}

DeviceObservations drive_session(FleetWorld& world, const FleetDevice& device,
                                 const FleetSpec& spec) {
  DeviceObservations obs;
  obs.family = device.family;
  obs.cohort = device.cohort;
  stats::Rng rng(device.session_seed);
  // Level dwell/transitions every second; heavyweight samples gated.
  run_usage(world, device.user, spec.session_s, spec.net, rng, obs,
            [&](std::int64_t second, mem::PressureLevel level) {
              if (second % spec.sample_period_s != 0) return;
              obs.util_samples.push_back(world.memory.utilization());
              obs.avail_samples.emplace_back(static_cast<std::uint8_t>(level),
                                             mem::mb_from_pages(world.memory.available_pages()));
            });
  return obs;
}

study::DeviceStudyResult simulate_study_device(const study::StudyDevice& device,
                                               std::uint64_t seed) {
  study::DeviceStudyResult result;
  result.device = device;
  DeviceObservations obs;
  const core::DeviceProfile profile = device.profile();
  FleetWorld world(profile);
  boot(world, profile);

  // The paper's app logged every second; reservoirs keep the Fig 2 and
  // Fig 5 samples bounded over a device's whole interactive time.
  stats::Rng rng(stats::derive_seed(seed, static_cast<std::uint64_t>(device.index) + 7777));
  const auto seconds = static_cast<std::int64_t>(device.interactive_hours * 3600.0);
  run_usage(world, device.user, seconds, net::NetSpec{}, rng, obs,
            [&](std::int64_t second, mem::PressureLevel level) {
              const auto index = static_cast<std::size_t>(level);
              reservoir_add(result.utilization_samples, 7200,
                            static_cast<std::uint64_t>(second) + 1, world.memory.utilization(),
                            rng);
              reservoir_add(result.available_mb_by_state[index], 2000,
                            obs.seconds_in_level[index],
                            mem::mb_from_pages(world.memory.available_pages()), rng);
            });

  result.hours_logged = static_cast<double>(seconds) / 3600.0;
  result.signals = obs.signals;
  for (std::size_t from = 0; from < obs.seconds_in_level.size(); ++from) {
    result.seconds_in_level[from] = obs.seconds_in_level[from];
    std::copy(obs.transitions[from].begin(), obs.transitions[from].end(),
              result.transitions[from].begin());
  }
  for (const auto& [from, dwell_s] : obs.dwell) result.dwell_seconds[from].push_back(dwell_s);
  result.median_utilization = result.utilization_samples.empty()
                                  ? 0.0
                                  : stats::percentile(result.utilization_samples, 50.0);
  return result;
}

std::vector<study::DeviceStudyResult> run_study(const std::vector<study::StudyDevice>& population,
                                                std::uint64_t seed, int jobs) {
  auto batch = runner::run_batch(population.size(), jobs, [&](std::size_t i) {
    return simulate_study_device(population[i], seed);
  });
  std::vector<study::DeviceStudyResult> results;
  results.reserve(batch.runs.size());
  for (auto& slot : batch.runs) {
    if (!slot.ok) {
      throw std::runtime_error("study: device " + std::to_string(slot.index) + " failed: " +
                               slot.error);
    }
    results.push_back(std::move(slot.value));
  }
  return results;
}

std::vector<DeviceObservations> run_shard_observations(const FleetSpec& spec,
                                                       std::uint64_t unit) {
  const std::uint64_t first = unit * spec.shard_size;
  if (first >= spec.devices) throw std::invalid_argument("fleet: unit past the fleet");
  const std::uint64_t last = std::min(first + spec.shard_size, spec.devices);

  std::vector<DeviceObservations> observations;
  observations.reserve(static_cast<std::size_t>(last - first));
  for (std::uint64_t d = first; d < last; ++d) {
    const FleetDevice device = sample_fleet_device(d, spec.seed);
    FleetWorld world(family_at(device.family).profile(), spec.mem_policy);
    prepare_world(world, device.family, device.cohort, spec);
    observations.push_back(drive_session(world, device, spec));
  }
  return observations;
}

}  // namespace mvqoe::fleet
