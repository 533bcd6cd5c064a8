#include "scenario/workloads.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "proc/app_catalog.hpp"
#include "snapshot/digest.hpp"
#include "snapshot/rng_io.hpp"
#include "stats/rng.hpp"

namespace mvqoe::scenario {

namespace {

/// Session 0 keeps the legacy fourccs (byte-identity with pre-scenario
/// blobs); later sessions get numbered variants.
std::uint32_t indexed_tag(const char (&base)[5], const char (&numbered)[4], std::size_t index) {
  if (index == 0) return snapshot::tag(base);
  if (index > 9) throw std::invalid_argument("scenario: more than 10 workloads of one kind");
  const char digit = static_cast<char>('0' + index);
  const char buf[5] = {numbered[0], numbered[1], numbered[2], digit, '\0'};
  return snapshot::tag(buf);
}

std::string indexed_name(const char* base, std::size_t index) {
  return index == 0 ? std::string(base) : std::string(base) + std::to_string(index);
}

}  // namespace

VideoSessionWorkload::VideoSessionWorkload(VideoWorkloadSpec spec, video::PlayerPlatform platform,
                                           std::size_t index)
    : spec_(std::move(spec)), platform_(platform), index_(index) {}

VideoSessionWorkload::~VideoSessionWorkload() = default;

void VideoSessionWorkload::set_cell(int height, int fps, std::uint64_t video_seed) {
  if (session_ != nullptr) {
    throw std::logic_error("scenario: set_cell after the session started");
  }
  spec_.height = height;
  spec_.fps = fps;
  spec_.seed = video_seed;
}

void VideoSessionWorkload::start(core::Testbed& testbed) {
  if (session_ != nullptr) return;
  core::Testbed& tb = testbed;

  config_.asset = spec_.asset_override.value_or(video::dubai_flow_motion(spec_.duration_s));
  config_.profile = video::PlayerProfile::for_platform(platform_);
  const auto rung = config_.ladder.find(spec_.height, spec_.fps);
  config_.initial_rung = rung.value_or(config_.ladder.rungs().front());
  config_.seed = stats::derive_seed(spec_.seed, 0xBEEF);
  if (spec_.recovery.has_value()) config_.recovery = *spec_.recovery;
  config_.next_pid = [&tb] { return tb.am.next_pid(); };

  session_ = std::make_unique<video::VideoSession>(tb.engine, tb.scheduler, tb.memory, tb.link,
                                                   tb.tracer, config_, spec_.abr);
  tb.components().add(static_cast<int>(10 + 2 * index_), indexed_tag("VIDE", "VID", index_),
                      indexed_name("video", index_),
                      [this](snapshot::ByteWriter& w) { session_->save(w); },
                      [this] { return session_->digest(); });
  video_start_ = tb.engine.now();

  if (!spec_.fault_plan.empty()) {
    fault::FaultTargets targets;
    targets.engine = &tb.engine;
    targets.link = &tb.link;
    targets.storage = &tb.storage;
    targets.scheduler = &tb.scheduler;
    targets.memory = &tb.memory;
    targets.tracer = &tb.tracer;
    injector_ = std::make_unique<fault::FaultInjector>(targets, spec_.fault_plan);
    injector_->set_kill_target([this] { return session_->pid(); });
    injector_->arm(video_start_);
    tb.components().add(static_cast<int>(11 + 2 * index_), indexed_tag("FALT", "FLT", index_),
                        indexed_name("fault", index_),
                        [this](snapshot::ByteWriter& w) { injector_->save(w); },
                        [this] { return injector_->digest(); });
  }

  session_->start(tb.am.next_pid(), [this] { finished_ = true; });
}

void VideoSessionWorkload::finalize(core::Testbed& testbed) {
  (void)testbed;
  if (injector_ != nullptr) injector_->disarm();
}

core::VideoRunResult VideoSessionWorkload::result() const {
  if (session_ == nullptr) {
    throw std::logic_error("scenario: result() before the session started");
  }
  core::VideoRunResult result;
  result.metrics = session_->metrics();
  if (result.metrics.crashed) {
    result.status = core::RunStatus::Crashed;
    result.failure_reason = "client killed with no relaunch budget left";
  } else if (result.metrics.aborted) {
    result.status = core::RunStatus::Aborted;
    result.failure_reason = result.metrics.abort_reason;
  } else if (!finished_) {
    result.status = core::RunStatus::TimedOut;
    result.failure_reason = "session did not finish within the run horizon";
  }
  qoe::RunOutcome& outcome = result.outcome;
  outcome.crashed = result.metrics.crashed;
  outcome.aborted = result.metrics.aborted;
  outcome.relaunches = result.metrics.relaunches;
  outcome.rebuffer_events = result.metrics.rebuffer_events;
  outcome.relaunch_downtime_s = sim::to_seconds(result.metrics.relaunch_downtime);
  if (!finished_ && !result.metrics.crashed) {
    // Unplayable without a kill (starved forever): classify every frame
    // that never got presented as dropped (paper: "the video was either
    // unplayable or the video client crashed").
    const auto planned =
        static_cast<std::int64_t>(config_.asset.duration_s) * config_.initial_rung.fps;
    result.metrics.frames_dropped =
        std::max(result.metrics.frames_dropped, planned - result.metrics.frames_presented);
  }
  outcome.drop_rate = result.metrics.drop_rate();
  if (result.metrics.crashed &&
      result.metrics.frames_presented + result.metrics.frames_dropped < config_.initial_rung.fps) {
    // Killed before a single second played: unplayable (paper: "the
    // video was either unplayable or the video client crashed").
    outcome.drop_rate = 1.0;
  }
  outcome.mean_pss_mb = result.metrics.pss_mb.mean();
  outcome.peak_pss_mb = result.metrics.pss_mb.empty() ? 0.0 : result.metrics.pss_mb.max();
  if (result.metrics.playback_start >= 0) {
    outcome.startup_delay_s = sim::to_seconds(result.metrics.playback_start - video_start_);
  }
  return result;
}

BackgroundDutyWorkload::BackgroundDutyWorkload(std::string label, int count)
    : label_(std::move(label)), count_(count) {}

void BackgroundDutyWorkload::attach(core::Testbed& testbed) {
  core::Testbed& tb = testbed;
  // Half the opened apps keep working in the background (music,
  // messengers syncing, feeds refreshing): they hold part of their
  // working set hot, keep touching it, and — like real Android services
  // — RESTART a few seconds after lmkd kills them. That restart churn
  // is what makes organic pressure persist through the whole video
  // (paper §4.3 and the continuous kills of Fig 15).
  relaunch_ = std::make_shared<std::function<void(proc::AppSpec, bool)>>();
  // Weak refs only inside the chain: the workload owns the function for
  // the whole run, and a strong self-capture would be an unfreeable
  // shared_ptr cycle.
  std::weak_ptr<std::function<void(proc::AppSpec, bool)>> relaunch = relaunch_;
  *relaunch_ = [&tb, relaunch](proc::AppSpec app, bool active) {
    const auto pid = tb.am.next_pid();
    tb.memory.register_process(pid, app.name, mem::OomAdj::kService, [&tb, relaunch, app, active] {
      tb.engine.schedule(sim::sec(4), [relaunch, app, active] {
        if (const auto fn = relaunch.lock()) (*fn)(app, active);
      });
    });
    // Restarted trimmed: services come back with a reduced heap.
    const mem::Pages heap = app.heap_pages * 3 / 5;
    tb.memory.alloc_anon(pid, heap, 0, [&tb, pid, heap, active](bool ok) {
      if (ok && active) tb.memory.set_hot_pages(pid, heap / 3);
    });
    tb.memory.map_file(pid, app.code_pages / 2, 0, nullptr);
    if (active) tb.add_background_duty(pid);
  };

  const auto& catalog = proc::top_free_apps();
  for (int i = 0; i < count_; ++i) {
    const proc::AppSpec& app = catalog[static_cast<std::size_t>(i) % catalog.size()];
    const bool active = i % 2 == 0;
    const auto pid = tb.am.launch(app, [&tb, relaunch, app, active] {
      tb.engine.schedule(sim::sec(4), [relaunch, app, active] {
        if (const auto fn = relaunch.lock()) (*fn)(app, active);
      });
    });
    tb.engine.run_until(tb.engine.now() + sim::msec(800));
    if (active && tb.memory.registry().alive(pid)) {
      tb.memory.set_oom_adj(pid, mem::OomAdj::kService);
      tb.memory.set_hot_pages(pid, app.heap_pages / 3);
      tb.add_background_duty(pid);
    }
    observed_ = std::max(observed_, tb.memory.level());
  }
  // All opened apps end up in the background once the player launches.
  tb.engine.run_until(tb.engine.now() + sim::sec(1));
  observed_ = std::max(observed_, tb.memory.level());
}

PressureInducerWorkload::PressureInducerWorkload(std::string label, mem::PressureLevel target,
                                                 std::size_t index)
    : label_(std::move(label)), target_(target), index_(index) {}

PressureInducerWorkload::~PressureInducerWorkload() = default;

void PressureInducerWorkload::attach(core::Testbed& testbed) {
  core::Testbed& tb = testbed;
  inducer_ = std::make_unique<core::PressureInducer>(tb, target_);
  tb.components().add(static_cast<int>(110 + index_), indexed_tag("INDC", "IND", index_),
                      indexed_name("inducer", index_),
                      [this](snapshot::ByteWriter& w) { inducer_->save(w); },
                      [this] { return inducer_->digest(); });
  // Shared flags: the signal callback may fire after this wait loop
  // times out (while the video is already playing).
  auto reached = std::make_shared<bool>(false);
  auto level_at_signal = std::make_shared<mem::PressureLevel>(mem::PressureLevel::Normal);
  inducer_->start([reached, level_at_signal, &tb] {
    *reached = true;
    // Level at the moment the target signal arrived (it keeps
    // oscillating afterwards with the kill/respawn churn).
    *level_at_signal = tb.memory.level();
  });
  // Give the inducer up to 5 simulated minutes to reach the target.
  const sim::Time deadline = tb.engine.now() + sim::minutes(5);
  while (!*reached && tb.engine.now() < deadline) {
    tb.engine.run_until(tb.engine.now() + sim::msec(200));
  }
  observed_ = *level_at_signal;
}

CrossTrafficWorkload::CrossTrafficWorkload(CrossTrafficWorkloadSpec spec, std::size_t index)
    : spec_(std::move(spec)),
      index_(index),
      rng_(stats::derive_seed(spec_.seed, 0xC4C4)) {}

CrossTrafficWorkload::~CrossTrafficWorkload() = default;

void CrossTrafficWorkload::start(core::Testbed& testbed) {
  core::Testbed& tb = testbed;
  tb.components().add(static_cast<int>(130 + index_), indexed_tag("XTRC", "XTR", index_),
                      indexed_name("cross", index_),
                      [this](snapshot::ByteWriter& w) { save(w); }, [this] { return digest(); });
  bulk_.resize(static_cast<std::size_t>(std::max(0, spec_.bulk_flows)));
  onoff_.resize(static_cast<std::size_t>(std::max(0, spec_.onoff_flows)));
  // Seeded phase jitter: each lane kicks off within its first second so
  // competing flows don't toggle in lockstep. start() must not advance
  // the engine, so the kick-offs are scheduled, never run inline.
  for (std::size_t i = 0; i < bulk_.size(); ++i) {
    const sim::Time delay = 1 + rng_.uniform_int(0, sim::msec(900));
    tb.engine.schedule(delay, [this, &tb, i] {
      if (!stopped_) start_chunk(tb, /*bulk=*/true, i);
    });
  }
  for (std::size_t i = 0; i < onoff_.size(); ++i) {
    const sim::Time delay = 1 + rng_.uniform_int(0, sim::msec(900));
    tb.engine.schedule(delay, [this, &tb, i] {
      if (!stopped_) toggle(tb, i);
    });
  }
}

void CrossTrafficWorkload::start_chunk(core::Testbed& tb, bool bulk, std::size_t slot) {
  FlowLane& lane = bulk ? bulk_[slot] : onoff_[slot];
  lane.id = tb.link.transfer(spec_.chunk_bytes, [this, &tb, bulk, slot](bool ok) {
    FlowLane& done = bulk ? bulk_[slot] : onoff_[slot];
    done.id = net::kInvalidTransfer;
    if (ok) ++done.chunks;
    // Chain the next chunk while the lane is live (bulk: always; on/off:
    // only inside an on-phase).
    if (!stopped_ && done.on) start_chunk(tb, bulk, slot);
  });
}

void CrossTrafficWorkload::toggle(core::Testbed& tb, std::size_t slot) {
  FlowLane& lane = onoff_[slot];
  lane.on = !lane.on;
  if (lane.on) {
    start_chunk(tb, /*bulk=*/false, slot);
  } else if (lane.id != net::kInvalidTransfer) {
    tb.link.cancel(lane.id);
    lane.id = net::kInvalidTransfer;
  }
  const sim::Time phase = sim::sec(lane.on ? std::max(1, spec_.on_s) : std::max(1, spec_.off_s));
  tb.engine.schedule(phase, [this, &tb, slot] {
    if (!stopped_) toggle(tb, slot);
  });
}

void CrossTrafficWorkload::finalize(core::Testbed& testbed) {
  stopped_ = true;
  for (FlowLane& lane : bulk_) {
    if (lane.id != net::kInvalidTransfer) testbed.link.cancel(lane.id);
    lane.id = net::kInvalidTransfer;
  }
  for (FlowLane& lane : onoff_) {
    if (lane.id != net::kInvalidTransfer) testbed.link.cancel(lane.id);
    lane.id = net::kInvalidTransfer;
  }
}

void CrossTrafficWorkload::save(snapshot::ByteWriter& w) const {
  w.u32(1);  // section version
  w.b(stopped_);
  snapshot::write_rng(w, rng_);
  w.u64(bulk_.size());
  for (const FlowLane& lane : bulk_) {
    w.u64(lane.id);
    w.u64(lane.chunks);
  }
  w.u64(onoff_.size());
  for (const FlowLane& lane : onoff_) {
    w.u64(lane.id);
    w.b(lane.on);
    w.u64(lane.chunks);
  }
}

std::uint64_t CrossTrafficWorkload::digest() const { return snapshot::state_digest(*this); }

}  // namespace mvqoe::scenario
