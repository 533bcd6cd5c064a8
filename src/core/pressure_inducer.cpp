#include "core/pressure_inducer.hpp"

#include "snapshot/digest.hpp"

namespace mvqoe::core {

namespace {
constexpr mem::Pages kStepPages = mem::pages_from_mb(8);
constexpr sim::Time kStepPeriod = sim::msec(50);
/// Touch cost per allocated page (the app memsets its allocations so the
/// kernel cannot lazily zero-fill them away).
constexpr double kTouchRefusPerPage = 0.18;
}  // namespace

PressureInducer::PressureInducer(Testbed& testbed, mem::PressureLevel target)
    : testbed_(testbed), target_(target) {
  // Never allocate more than twice RAM: if the target is unreachable the
  // inducer must not spin the simulation forever.
  cap_ = 2 * testbed_.profile().memory.total;
}

PressureInducer::~PressureInducer() { *keepalive_ = false; }

void PressureInducer::start(std::function<void()> on_reached) {
  on_reached_ = std::move(on_reached);
  if (target_ == mem::PressureLevel::Normal) {
    reached_ = true;
    if (on_reached_) testbed_.engine.schedule(0, std::move(on_reached_));
    return;
  }
  // Stop-at-first-signal: the trim delivery itself marks the target
  // reached, before the allocator can overshoot into a deeper level.
  testbed_.memory.subscribe_trim([this, alive = keepalive_](mem::PressureLevel level) {
    if (!*alive || reached_) return;
    if (level >= target_) {
      reached_ = true;
      if (on_reached_) {
        testbed_.engine.schedule(0, std::move(on_reached_));
        on_reached_ = nullptr;
      }
    }
  });
  pid_ = testbed_.am.next_pid();
  testbed_.memory.register_process(pid_, "mp_simulator", mem::OomAdj::kPerceptible);
  testbed_.memory.registry().set_killable(pid_, false);
  testbed_.memory.registry().set_unevictable(pid_, true);  // native (mlocked) allocations

  sched::ThreadSpec spec;
  spec.name = "mp_alloc";
  spec.pid = pid_;
  spec.process_name = "mp_simulator";
  tid_ = testbed_.scheduler.create_thread(spec);

  running_ = true;
  step();
}

mem::Pages PressureInducer::target_available() const {
  // Pin available memory inside the zone where the target level's
  // signals are generated: at the cached-kill threshold for Moderate,
  // progressively deeper for Low/Critical. This reproduces the paper's
  // *sustained* pressure states rather than a one-shot spike.
  const mem::MemoryConfig& config = testbed_.profile().memory;
  switch (target_) {
    case mem::PressureLevel::Moderate: return config.minfree_cached;
    case mem::PressureLevel::Low: return (config.minfree_cached + config.minfree_service) / 2;
    case mem::PressureLevel::Critical: return config.minfree_service * 4 / 5;
    case mem::PressureLevel::Normal: break;
  }
  return config.total;
}

void PressureInducer::step() {
  if (!running_) return;
  const mem::Pages avail = testbed_.memory.available_pages();
  if (!reached_) {
    // Ramp phase: allocate until the target signal is delivered (the
    // listener in start() flips reached_).
    if (testbed_.memory.level() >= target_ || held_ >= cap_) {
      testbed_.scheduler.sleep_for(tid_, kStepPeriod, sim::flat_method<&PressureInducer::step>,
                                   this);
      return;
    }
  } else {
    // Hold phase: keep available memory pinned just *above* the kill
    // threshold zone so the pressure state persists through the video —
    // but never grow much past what reaching the signal required.
    // (Otherwise the holder ratchets against every page kswapd compresses
    // until zRAM saturates, which the one-shot MP Simulator never did.)
    if (held_at_reached_ == 0) held_at_reached_ = held_;
    // Moderate holds near its ramp size; Low/Critical keep pinning hard —
    // the deep states *are* reclaim-collapse states.
    const mem::Pages hold_cap = target_ >= mem::PressureLevel::Low
                                    ? cap_
                                    : held_at_reached_ + held_at_reached_ / 7;
    const mem::Pages target_avail = target_available();
    if (avail <= target_avail + mem::pages_from_mb(6) || held_ >= std::min(cap_, hold_cap)) {
      testbed_.scheduler.sleep_for(tid_, kStepPeriod * 4,
                                   sim::flat_method<&PressureInducer::step>, this);
      return;
    }
  }
  // Allocate one step, touch it, loop. Near the target zone, ramp gently
  // — the kill/signal machinery needs time to surface the level, and
  // overshooting Moderate straight into Critical would not match the MP
  // Simulator's stop-at-first-signal behaviour.
  const bool near_pressure =
      testbed_.memory.kswapd_active() || avail < target_available() + mem::pages_from_mb(64);
  step_pages_ = near_pressure ? kStepPages / 8 : kStepPages;
  step_wait_ = near_pressure ? kStepPeriod * 3 : kStepPeriod;
  testbed_.scheduler.run_work(tid_, static_cast<double>(step_pages_) * kTouchRefusPerPage,
                              sim::flat_method<&PressureInducer::touched>, this);
}

void PressureInducer::touched() {
  testbed_.memory.alloc_anon(pid_, step_pages_, tid_, [this](bool ok) {
    if (!running_) return;
    if (ok) {
      held_ += step_pages_;
      // The MP Simulator keeps its allocations resident (it touches
      // them natively): fully hot, never compressible.
      testbed_.memory.set_hot_pages(pid_, held_);
    }
    testbed_.scheduler.sleep_for(tid_, step_wait_, sim::flat_method<&PressureInducer::step>,
                                 this);
  });
}

void PressureInducer::stop() {
  if (!running_ && pid_ == 0) return;
  running_ = false;
  if (pid_ != 0) {
    testbed_.memory.exit_process(pid_);
    pid_ = 0;
  }
  held_ = 0;
}

void PressureInducer::save(snapshot::ByteWriter& w) const {
  w.u32(1);  // section version
  w.u8(static_cast<std::uint8_t>(target_));
  w.u32(pid_);
  w.u64(tid_);
  w.b(running_);
  w.b(reached_);
  w.i64(held_);
  w.i64(held_at_reached_);
  w.i64(cap_);
}

std::uint64_t PressureInducer::digest() const { return snapshot::state_digest(*this); }

}  // namespace mvqoe::core
