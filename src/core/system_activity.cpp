#include "core/system_activity.hpp"

#include "snapshot/digest.hpp"
#include "snapshot/rng_io.hpp"

namespace mvqoe::core {

SystemActivity::SystemActivity(Testbed& testbed, SystemActivityConfig config)
    : testbed_(testbed), config_(config), rng_(stats::derive_seed(testbed.seed(), 0x5157)) {}

SystemActivity::~SystemActivity() {
  *alive_ = false;
  // The duty threads outlive this driver: forget the bursts and sleeps
  // that would call back into it.
  for (const Duty& duty : duties_) testbed_.scheduler.drop_continuation(duty.tid);
}

void SystemActivity::start() {
  if (running_) return;
  running_ = true;
  for (const mem::ProcessId pid : testbed_.am.system_pids()) {
    const mem::ProcessMem* process = testbed_.memory.registry().find(pid);
    if (process == nullptr) continue;
    sched::ThreadSpec spec;
    spec.name = process->name + ":duty";
    spec.pid = pid;
    spec.process_name = process->name;
    Duty duty;
    duty.pid = pid;
    duty.tid = testbed_.scheduler.create_thread(spec);
    duty.period = config_.base_period + sim::usec(rng_.uniform_int(0, 200'000));
    duties_.push_back(duty);
  }
  for (std::size_t i = 0; i < duties_.size(); ++i) {
    // Stagger the first activations.
    testbed_.engine.schedule(sim::usec(rng_.uniform_int(0, 300'000)),
                             [this, i, alive = alive_] {
                               if (*alive && running_) loop(i);
                             });
  }
}

void SystemActivity::stop() { running_ = false; }

void SystemActivity::add_process(mem::ProcessId pid, sim::Time period) {
  const mem::ProcessMem* process = testbed_.memory.registry().find(pid);
  if (process == nullptr) return;
  sched::ThreadSpec spec;
  spec.name = process->name + ":bg";
  spec.pid = pid;
  spec.process_name = process->name;
  Duty duty;
  duty.pid = pid;
  duty.tid = testbed_.scheduler.create_thread(spec);
  duty.period = period + sim::usec(rng_.uniform_int(0, 150'000));
  duties_.push_back(duty);
  const std::size_t index = duties_.size() - 1;
  if (running_) {
    testbed_.engine.schedule(sim::usec(rng_.uniform_int(0, 200'000)),
                             [this, index, alive = alive_] {
                               if (*alive && running_) loop(index);
                             });
  }
}

void SystemActivity::loop(std::size_t index) {
  if (!running_) return;
  const Duty& duty = duties_[index];
  if (!testbed_.scheduler.exists(duty.tid) || !testbed_.scheduler.is_idle(duty.tid)) return;
  testbed_.scheduler.run_work(duty.tid, config_.duty_cpu_refus,
                              sim::flat_method<&SystemActivity::duty_done>, this, index);
}

void SystemActivity::duty_done(std::uint64_t index) {
  if (!running_) return;
  const Duty& duty = duties_[index];
  const mem::ProcessMem* process = testbed_.memory.registry().find(duty.pid);
  if (process == nullptr) return;  // killed; duty retires
  const auto anon_touch = static_cast<mem::Pages>(
      config_.heap_fraction * static_cast<double>(process->anon_resident + process->anon_swapped));
  const auto file_touch = static_cast<mem::Pages>(
      config_.code_fraction * static_cast<double>(process->file_working_set));
  testbed_.memory.touch_working_set(
      duty.pid, duty.tid, anon_touch, file_touch, [this, index, alive = alive_](bool) {
        if (!*alive || !running_) return;
        const Duty& duty = duties_[index];
        if (!testbed_.scheduler.exists(duty.tid)) return;
        testbed_.scheduler.sleep_for(duty.tid, duty.period,
                                     sim::flat_method<&SystemActivity::duty_woke>, this, index);
      });
}

void SystemActivity::duty_woke(std::uint64_t index) {
  if (running_) loop(index);
}

void SystemActivity::save(snapshot::ByteWriter& w) const {
  w.u32(1);  // section version
  w.b(running_);
  snapshot::write_rng(w, rng_);
  w.u64(duties_.size());
  for (const Duty& duty : duties_) {
    w.u32(duty.pid);
    w.u64(duty.tid);
    w.i64(duty.period);
  }
}

std::uint64_t SystemActivity::digest() const { return snapshot::state_digest(*this); }

}  // namespace mvqoe::core
