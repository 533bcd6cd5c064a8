#include "snapshot/replay/driver.hpp"

#include <stdexcept>
#include <utility>

#include "core/system_activity.hpp"

namespace mvqoe::snapshot::replay {

ReplayDriver::ReplayDriver(mvqoe::scenario::ScenarioSpec scen, trace::TraceLevel trace_level)
    : driver_(std::move(scen), trace_level) {}

void ReplayDriver::start() {
  driver_.prepare();
  driver_.start();
}

bool ReplayDriver::advance_to_offset(sim::Time offset) {
  const sim::Time target = driver_.video_start() + offset;
  while (driver_.testbed().engine.now() < target) {
    maybe_perturb();
    if (!driver_.advance_slice()) return false;
  }
  maybe_perturb();
  return true;
}

bool ReplayDriver::done() const { return driver_.done(); }

sim::Time ReplayDriver::now() const { return driver_.testbed().engine.now(); }

sim::Time ReplayDriver::video_start() const { return driver_.video_start(); }

std::uint64_t ReplayDriver::digest() const { return driver_.state_digest(); }

std::vector<std::pair<std::string, std::uint64_t>> ReplayDriver::digests() const {
  return driver_.subsystem_digests();
}

void ReplayDriver::save(Snapshot& snap) const { driver_.save_state(snap); }

void ReplayDriver::perturb_now() {
  core::SystemActivity* activity = driver_.testbed().system_activity();
  if (activity == nullptr) {
    throw std::runtime_error("snapshot: cannot perturb before the testbed booted");
  }
  stats::Rng::State state = activity->rng().save_state();
  state.s[1] ^= 1ULL << 23;
  activity->rng().restore_state(state);
  perturbed_ = true;
}

std::optional<std::pair<sim::Time, std::uint64_t>> ReplayDriver::next_event() const {
  const auto live = driver_.testbed().engine.live_events();
  if (live.empty()) return std::nullopt;
  return live.front();
}

bool ReplayDriver::step_event() { return driver_.testbed().engine.step(); }

void ReplayDriver::maybe_perturb() {
  if (!perturb_at_.has_value() || perturbed_) return;
  if (now() >= driver_.video_start() + *perturb_at_) perturb_now();
}

}  // namespace mvqoe::snapshot::replay
