#include "scenario/driver.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/system_activity.hpp"

namespace mvqoe::scenario {

namespace {

/// Severity for the scenario-level rollup: a crash anywhere outranks an
/// abort outranks a timeout.
int severity(core::RunStatus status) {
  switch (status) {
    case core::RunStatus::Completed: return 0;
    case core::RunStatus::TimedOut: return 1;
    case core::RunStatus::Aborted: return 2;
    case core::RunStatus::Crashed: return 3;
  }
  return 0;
}

}  // namespace

ScenarioDriver::ScenarioDriver(ScenarioSpec spec, trace::TraceLevel trace_level)
    : spec_(std::move(spec)) {
  testbed_ = std::make_unique<core::Testbed>(device_for(spec_),
                                             spec_.world_seed.value_or(spec_.seed),
                                             spec_.mem_policy, spec_.net, trace_level);
  // The scenario-level pressure regime comes first (it must be
  // established before any session starts — §4.1); the spec's workload
  // list follows in order. The legacy experiment always ran a synthetic
  // inducer (even at a Normal target), so the scenario does too.
  std::size_t inducers = 0;
  if (spec_.organic_background_apps > 0) {
    workloads_.push_back(
        std::make_unique<BackgroundDutyWorkload>("organic", spec_.organic_background_apps));
  } else {
    workloads_.push_back(
        std::make_unique<PressureInducerWorkload>("pressure", spec_.state, inducers++));
  }
  // Fail at construction, not at start(): the numbered fourcc tags
  // (VID1..VID9, FLT1.., IND1..) only cover ten workloads of one kind.
  if (scenario::video_count(spec_) > 10) {
    throw std::invalid_argument("scenario: more than 10 video sessions per scenario");
  }
  std::size_t video_index = 0;
  std::size_t cross_traffic = 0;
  for (const WorkloadSpec& workload : spec_.workloads) {
    if (const auto* video = std::get_if<VideoWorkloadSpec>(&workload)) {
      auto session = std::make_unique<VideoSessionWorkload>(*video, platform_for(spec_, *video),
                                                            video_index++);
      videos_.push_back(session.get());
      workloads_.push_back(std::move(session));
    } else if (const auto* apps = std::get_if<BackgroundAppsWorkloadSpec>(&workload)) {
      workloads_.push_back(std::make_unique<BackgroundDutyWorkload>(apps->label, apps->count));
    } else if (const auto* pressure = std::get_if<PressureWorkloadSpec>(&workload)) {
      workloads_.push_back(std::make_unique<PressureInducerWorkload>(
          pressure->label, pressure->target, inducers++));
    } else {
      const auto& cross = std::get<CrossTrafficWorkloadSpec>(workload);
      workloads_.push_back(std::make_unique<CrossTrafficWorkload>(cross, cross_traffic++));
    }
  }
}

ScenarioDriver::~ScenarioDriver() = default;

ScenarioResult ScenarioDriver::run() {
  prepare();
  start();
  while (advance_slice()) {
  }
  return finalize();
}

void ScenarioDriver::prepare() {
  if (prepared_) return;
  prepared_ = true;
  testbed_->boot();
  for (auto& workload : workloads_) {
    workload->attach(*testbed_);
    start_level_ = std::max(start_level_, workload->observed_level());
  }
}

void ScenarioDriver::set_cell(int height, int fps, std::uint64_t video_seed) {
  video(0).set_cell(height, fps, video_seed);
}

void ScenarioDriver::start() {
  if (!prepared_) prepare();
  if (started_) return;
  started_ = true;
  core::Testbed& tb = *testbed_;

  start_level_ = std::max(start_level_, tb.memory.level());

  // Every session starts at this one instant: start() hooks must not
  // advance the engine (the Workload contract), so engine.now() is
  // constant across the loop.
  video_start_ = tb.engine.now();
  for (auto& workload : workloads_) {
    workload->start(tb);
  }

  // Horizon: generous multiple of the longest video duration; a session
  // that cannot finish by then was unplayable.
  int max_duration_s = 0;
  for (const VideoSessionWorkload* video : videos_) {
    max_duration_s = std::max(max_duration_s, video->config().asset.duration_s);
  }
  horizon_ = video_start_ + sim::sec(max_duration_s * 3) + sim::minutes(2);
}

bool ScenarioDriver::done() const noexcept {
  bool all_done = true;
  for (const auto& workload : workloads_) {
    all_done = all_done && workload->done();
  }
  return all_done || testbed_->engine.now() >= horizon_;
}

bool ScenarioDriver::advance_slice() {
  if (done()) return false;
  testbed_->engine.run_until(testbed_->engine.now() + sim::sec(1));
  return true;
}

ScenarioResult ScenarioDriver::finalize() {
  core::Testbed& tb = *testbed_;
  ScenarioResult result;
  result.start_level = start_level_;
  for (auto& workload : workloads_) {
    workload->finalize(tb);
  }
  tb.tracer.finalize(tb.engine.now());

  for (const VideoSessionWorkload* video : videos_) {
    SessionReport report;
    report.label = video->label();
    report.result = video->result();
    report.result.start_level = start_level_;
    if (severity(report.result.status) > severity(result.status)) {
      result.status = report.result.status;
    }
    result.sessions.push_back(std::move(report));
  }
  return result;
}

bool ScenarioDriver::advance_to(sim::Time offset) {
  const sim::Time target = video_start_ + offset;
  while (testbed_->engine.now() < target) {
    maybe_perturb();
    if (!advance_slice()) return false;
  }
  maybe_perturb();
  return true;
}

void ScenarioDriver::perturb_now() {
  core::SystemActivity* activity = testbed_->system_activity();
  if (activity == nullptr) {
    throw std::runtime_error("scenario: cannot perturb before the testbed booted");
  }
  stats::Rng::State state = activity->rng().save_state();
  state.s[1] ^= 1ULL << 23;
  activity->rng().restore_state(state);
  perturbed_ = true;
}

void ScenarioDriver::maybe_perturb() {
  if (!perturb_at_.has_value() || perturbed_) return;
  if (testbed_->engine.now() >= video_start_ + *perturb_at_) perturb_now();
}

void ScenarioDriver::save_state(snapshot::Snapshot& snap) const {
  testbed_->components().save_state(snap);
}

std::uint64_t ScenarioDriver::state_digest() const { return testbed_->components().state_digest(); }

std::vector<std::pair<std::string, std::uint64_t>> ScenarioDriver::subsystem_digests() const {
  return testbed_->components().digests();
}

sim::Time ScenarioDriver::playback_start(std::size_t index) const {
  const VideoSessionWorkload& workload = video(index);
  return workload.session() != nullptr ? workload.session()->metrics().playback_start : -1;
}

ScenarioResult run_scenario(const ScenarioSpec& spec) { return ScenarioDriver(spec).run(); }

}  // namespace mvqoe::scenario
