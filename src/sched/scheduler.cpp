#include "sched/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "snapshot/digest.hpp"

namespace mvqoe::sched {

namespace {

constexpr double kMinWork = 0.1;  // reference-µs; floor for zero-work bursts

}  // namespace

Scheduler::Scheduler(sim::Engine& engine, trace::Tracer& tracer, SchedulerConfig config)
    : engine_(engine), tracer_(tracer), config_(std::move(config)) {
  assert(!config_.cores.empty());
  cores_.resize(config_.cores.size());
  for (std::size_t i = 0; i < cores_.size(); ++i) cores_[i].config = config_.cores[i];
}

Scheduler::Thread& Scheduler::thread(ThreadId tid) {
  assert(tid >= 1 && tid <= threads_.size());
  return threads_[tid - 1];
}

const Scheduler::Thread& Scheduler::thread(ThreadId tid) const {
  assert(tid >= 1 && tid <= threads_.size());
  return threads_[tid - 1];
}

double Scheduler::weight_for_nice(int nice) const noexcept {
  // Linux CFS weights scale ~1.25x per nice step; normalize nice 0 -> 1.0.
  return std::pow(1.25, -nice);
}

ThreadId Scheduler::create_thread(const ThreadSpec& spec) {
  Thread t;
  t.spec = spec;
  if (spec.sched_class == SchedClass::Fair) t.weight = weight_for_nice(spec.priority);
  threads_.push_back(std::move(t));
  const ThreadId tid = static_cast<ThreadId>(threads_.size());
  tracer_.register_thread(trace::ThreadMeta{tid, spec.pid, spec.name, spec.process_name});
  tracer_.state_change(tid, engine_.now(), trace::ThreadState::Created);
  // Created behaves as idle; report Sleeping so dwell-time accounting is
  // uniform from the start.
  tracer_.state_change(tid, engine_.now(), trace::ThreadState::Sleeping);
  threads_.back().state = trace::ThreadState::Sleeping;
  return tid;
}

bool Scheduler::exists(ThreadId tid) const {
  return tid >= 1 && tid <= threads_.size() && threads_[tid - 1].alive;
}

bool Scheduler::is_idle(ThreadId tid) const {
  const auto s = thread(tid).state;
  return s == trace::ThreadState::Sleeping || s == trace::ThreadState::BlockedIo;
}

trace::ThreadState Scheduler::state(ThreadId tid) const { return thread(tid).state; }

double Scheduler::vruntime(ThreadId tid) const { return thread(tid).vruntime; }

SchedClass Scheduler::sched_class(ThreadId tid) const { return thread(tid).spec.sched_class; }

std::optional<std::size_t> Scheduler::running_core(ThreadId tid) const {
  const int core = thread(tid).core;
  return core >= 0 ? std::optional<std::size_t>(static_cast<std::size_t>(core)) : std::nullopt;
}

void Scheduler::set_affinity(ThreadId tid, AffinityMask mask) { thread(tid).spec.affinity = mask; }

void Scheduler::set_speed_scale(double scale) {
  scale = std::max(scale, 0.01);
  if (scale == speed_scale_) return;
  // Checkpoint every running burst at the old speed: charge the work
  // consumed so far (CPU accounting + fair vruntime), restart the stint
  // at now with the remaining work, then re-arm completion/slice events
  // at the new speed. Restarting the stint also restarts its timeslice —
  // an acceptable deviation for the rare throttle transitions.
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    Core& core = cores_[i];
    if (core.running == trace::kNoThread) continue;
    Thread& t = thread(core.running);
    const sim::Time ran = engine_.now() - core.run_start;
    const double consumed =
        std::min(core.run_start_work, static_cast<double>(ran) * effective_freq(core));
    t.counters.cpu_refus_consumed += consumed;
    if (t.spec.sched_class == SchedClass::Fair && t.weight > 0.0) {
      t.vruntime += consumed / t.weight;
    }
    core.run_start_work -= consumed;
    core.run_start = engine_.now();
    t.remaining_work = core.run_start_work;
  }
  speed_scale_ = scale;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].running != trace::kNoThread) arm_core_event(i);
  }
}

bool Scheduler::can_run_on(const Thread& t, std::size_t core) const {
  return t.spec.affinity == 0 || (t.spec.affinity & (AffinityMask{1} << core)) != 0;
}

double Scheduler::min_vruntime(const Core& core) const {
  double vmin = std::numeric_limits<double>::max();
  bool any = false;
  for (ThreadId tid : core.fair_queue) {
    vmin = std::min(vmin, thread(tid).vruntime);
    any = true;
  }
  if (core.running != trace::kNoThread) {
    const Thread& running = thread(core.running);
    if (running.spec.sched_class == SchedClass::Fair) {
      vmin = std::min(vmin, running.vruntime);
      any = true;
    }
  }
  return any ? vmin : 0.0;
}

std::size_t Scheduler::place_thread(const Thread& t) const {
  // Prefer an idle permitted core (fastest first); otherwise for RT pick a
  // core running something preemptible; otherwise least-loaded.
  std::size_t best_idle = cores_.size();
  double best_idle_freq = -1.0;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (!can_run_on(t, i)) continue;
    if (cores_[i].running == trace::kNoThread && cores_[i].rt_queue.empty() &&
        cores_[i].fair_queue.empty() && cores_[i].config.freq_ghz > best_idle_freq) {
      best_idle = i;
      best_idle_freq = cores_[i].config.freq_ghz;
    }
  }
  if (best_idle < cores_.size()) return best_idle;

  if (t.spec.sched_class == SchedClass::Realtime) {
    // A core whose current occupant we can immediately preempt.
    for (std::size_t i = 0; i < cores_.size(); ++i) {
      if (!can_run_on(t, i)) continue;
      const Core& core = cores_[i];
      if (core.running == trace::kNoThread) return i;
      const Thread& occupant = thread(core.running);
      if (occupant.spec.sched_class == SchedClass::Fair ||
          occupant.spec.priority < t.spec.priority) {
        return i;
      }
    }
  }

  std::size_t best = 0;
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  bool found = false;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (!can_run_on(t, i)) continue;
    const Core& core = cores_[i];
    const std::size_t load = core.rt_queue.size() + core.fair_queue.size() +
                             (core.running != trace::kNoThread ? 1 : 0);
    if (load < best_load) {
      best_load = load;
      best = i;
      found = true;
    }
  }
  assert(found && "thread affinity excludes every core");
  (void)found;
  return best;
}

void Scheduler::run_work(ThreadId tid, double work_refus, std::function<void()> on_complete) {
  Thread& t = thread(tid);
  assert(t.alive && "run_work on terminated thread");
  assert(is_idle(tid) && "run_work on a thread that is already runnable/running");
  t.remaining_work = std::max(work_refus, kMinWork);
  t.on_complete = std::move(on_complete);
  t.state = trace::ThreadState::Runnable;
  tracer_.state_change(tid, engine_.now(), trace::ThreadState::Runnable);
  enqueue(tid, place_thread(t), /*preempt_check=*/true);
}

void Scheduler::mark_blocked_io(ThreadId tid) {
  Thread& t = thread(tid);
  assert(is_idle(tid));
  t.state = trace::ThreadState::BlockedIo;
  tracer_.state_change(tid, engine_.now(), trace::ThreadState::BlockedIo);
}

sim::EventId Scheduler::sleep_for(ThreadId tid, sim::Time delay, std::function<void()> on_wake) {
  assert(is_idle(tid));
  return engine_.schedule(delay, [this, tid, fn = std::move(on_wake)] {
    if (exists(tid)) fn();
  });
}

void Scheduler::enqueue(ThreadId tid, std::size_t core_idx, bool preempt_check) {
  Thread& t = thread(tid);
  Core& core = cores_[core_idx];

  if (t.spec.sched_class == SchedClass::Fair) {
    // Normalize vruntime into the target core's window so a long sleeper
    // neither hoards the CPU nor starves incumbents; 2 slices of credit.
    const double bound = min_vruntime(core) - 2.0 * static_cast<double>(config_.timeslice);
    t.vruntime = std::max(t.vruntime, bound);
  }

  if (core.running == trace::kNoThread) {
    if (t.spec.sched_class == SchedClass::Realtime) {
      queue_rt(core, tid);
    } else {
      core.fair_queue.push_back(tid);
    }
    dispatch(core_idx);
    return;
  }

  if (preempt_check && t.spec.sched_class == SchedClass::Realtime) {
    const Thread& occupant = thread(core.running);
    const bool preemptible = occupant.spec.sched_class == SchedClass::Fair ||
                             occupant.spec.priority < t.spec.priority;
    if (preemptible) {
      deschedule(core_idx, trace::ThreadState::RunnablePreempted, tid);
      core.rt_queue.insert(core.rt_queue.begin(), tid);
      dispatch(core_idx);
      return;
    }
  }

  if (t.spec.sched_class == SchedClass::Realtime) {
    queue_rt(core, tid);
  } else {
    core.fair_queue.push_back(tid);
    // A fair thread is now waiting behind the running thread: make sure a
    // timeslice boundary is armed so it gets its turn.
    arm_core_event(core_idx);
  }
}

void Scheduler::queue_rt(Core& core, ThreadId tid) {
  // The queue is sorted at every insert (a preemptor's front insert is popped
  // at once; a steal fills an empty queue), so inserting before the first
  // lower-priority thread keeps it sorted and FIFO within a priority level.
  const int priority = thread(tid).spec.priority;
  core.rt_queue.insert(std::find_if(core.rt_queue.begin(), core.rt_queue.end(),
                                    [&](ThreadId q) { return thread(q).spec.priority < priority; }),
                       tid);
}

void Scheduler::arm_core_event(std::size_t core_idx) {
  Core& core = cores_[core_idx];
  if (core.pending_event != sim::kInvalidEvent) {
    engine_.cancel(core.pending_event);
    core.pending_event = sim::kInvalidEvent;
  }
  if (core.running == trace::kNoThread) return;

  const Thread& t = thread(core.running);
  const double freq = effective_freq(core);
  const sim::Time ran = engine_.now() - core.run_start;
  const double consumed = static_cast<double>(ran) * freq;
  const double remaining = std::max(core.run_start_work - consumed, 0.0);
  const sim::Time completion =
      engine_.now() + std::max<sim::Time>(1, sim::ceil_int(remaining / freq));

  sim::Time when = completion;
  bool is_slice = false;
  if (t.spec.sched_class == SchedClass::Fair && !core.fair_queue.empty()) {
    const sim::Time slice_end = core.run_start + config_.timeslice;
    if (slice_end < when) {
      when = std::max(slice_end, engine_.now() + 1);
      is_slice = true;
    }
  }
  // Flat event (engine hot path): core events fire once per timeslice /
  // burst completion across every core — the single hottest timer in the
  // simulation. arg packs (core_idx << 1) | is_slice.
  core.pending_event = engine_.schedule_flat_at(
      when, &Scheduler::on_core_event, this,
      (static_cast<std::uint64_t>(core_idx) << 1) | (is_slice ? 1u : 0u));
}

void Scheduler::on_core_event(void* ctx, std::uint64_t arg) {
  auto* self = static_cast<Scheduler*>(ctx);
  const std::size_t core_idx = static_cast<std::size_t>(arg >> 1);
  self->cores_[core_idx].pending_event = sim::kInvalidEvent;
  if ((arg & 1u) != 0) {
    self->slice_expired(core_idx);
  } else {
    self->complete(core_idx);
  }
}

void Scheduler::dispatch(std::size_t core_idx) {
  Core& core = cores_[core_idx];
  if (core.running != trace::kNoThread) return;  // filled since scheduling

  ThreadId next = trace::kNoThread;
  if (!core.rt_queue.empty()) {
    next = core.rt_queue.front();
    core.rt_queue.erase(core.rt_queue.begin());
  } else if (!core.fair_queue.empty()) {
    auto best = core.fair_queue.begin();
    for (auto it = core.fair_queue.begin(); it != core.fair_queue.end(); ++it) {
      if (thread(*it).vruntime < thread(*best).vruntime) best = it;
    }
    next = *best;
    core.fair_queue.erase(best);
  } else {
    steal_for(core_idx);
    if (!core.rt_queue.empty()) {
      next = core.rt_queue.front();
      core.rt_queue.erase(core.rt_queue.begin());
    } else if (!core.fair_queue.empty()) {
      auto best = core.fair_queue.begin();
      for (auto it = core.fair_queue.begin(); it != core.fair_queue.end(); ++it) {
        if (thread(*it).vruntime < thread(*best).vruntime) best = it;
      }
      next = *best;
      core.fair_queue.erase(best);
    }
  }
  if (next == trace::kNoThread) return;  // core goes idle

  Thread& t = thread(next);
  // Charge context-switch / migration cost as extra work on the incoming
  // thread: the cache-refill penalty is paid by whoever runs next.
  const bool migrated = t.last_core >= 0 && t.last_core != static_cast<int>(core_idx);
  t.remaining_work += migrated ? config_.migration_cost_refus : config_.context_switch_cost_refus;
  ++t.counters.context_switches;
  if (migrated) ++t.counters.migrations;
  t.last_core = static_cast<int>(core_idx);
  t.core = static_cast<int>(core_idx);
  t.state = trace::ThreadState::Running;
  tracer_.state_change(next, engine_.now(), trace::ThreadState::Running);

  core.running = next;
  core.run_start = engine_.now();
  core.run_start_work = t.remaining_work;
  if (tracer_.full()) note_started_running(next);
  arm_core_event(core_idx);
}

void Scheduler::deschedule(std::size_t core_idx, trace::ThreadState next_state,
                           ThreadId preemptor) {
  Core& core = cores_[core_idx];
  assert(core.running != trace::kNoThread);
  const ThreadId tid = core.running;
  Thread& t = thread(tid);

  if (core.pending_event != sim::kInvalidEvent) {
    engine_.cancel(core.pending_event);
    core.pending_event = sim::kInvalidEvent;
  }
  const sim::Time ran = engine_.now() - core.run_start;
  const double consumed =
      std::min(core.run_start_work, static_cast<double>(ran) * effective_freq(core));
  t.remaining_work = core.run_start_work - consumed;
  t.counters.cpu_refus_consumed += consumed;
  if (t.spec.sched_class == SchedClass::Fair && t.weight > 0.0) t.vruntime += consumed / t.weight;

  if (tracer_.full()) note_stopped_running(tid, ran);
  core.running = trace::kNoThread;
  t.core = -1;
  t.state = next_state;
  tracer_.state_change(tid, engine_.now(), next_state, preemptor);
  if (next_state == trace::ThreadState::RunnablePreempted) {
    ++t.counters.preemptions_suffered;
    if (tracer_.full() && preemptor != trace::kNoThread) open_preemption(tid, preemptor);
    // The victim remains runnable: requeue on this core (no preempt check
    // — it just lost the CPU).
    if (t.spec.sched_class == SchedClass::Realtime) {
      queue_rt(core, tid);
    } else {
      core.fair_queue.push_back(tid);
    }
  }
}

void Scheduler::complete(std::size_t core_idx) {
  Core& core = cores_[core_idx];
  assert(core.running != trace::kNoThread);
  const ThreadId tid = core.running;
  Thread& t = thread(tid);

  const sim::Time ran = engine_.now() - core.run_start;
  t.counters.cpu_refus_consumed += core.run_start_work;
  if (t.spec.sched_class == SchedClass::Fair && t.weight > 0.0) {
    t.vruntime += core.run_start_work / t.weight;
  }
  t.remaining_work = 0.0;
  if (tracer_.full()) note_stopped_running(tid, ran);
  core.running = trace::kNoThread;
  t.core = -1;
  t.state = trace::ThreadState::Sleeping;
  tracer_.state_change(tid, engine_.now(), trace::ThreadState::Sleeping);

  // Run the completion callback at top level (a fresh flat event at the
  // same time; the callback waits in `parked`) so it can freely call back
  // into the scheduler — and dispatch the core *after* the callback, so a
  // thread that immediately resubmits work competes on vruntime with the
  // waiters instead of silently yielding its turn (CFS keeps such a
  // thread on the runqueue continuously). The thread's next completion is
  // at least 1 µs later, so the slot is free again by then.
  if (t.on_complete) {
    assert(!t.parked);
    t.parked = std::exchange(t.on_complete, nullptr);
    engine_.schedule_flat(0, &Scheduler::on_hand_off, this,
                          (static_cast<std::uint64_t>(core_idx) << 32) | tid);
  } else {
    dispatch(core_idx);
  }
}

void Scheduler::on_hand_off(void* ctx, std::uint64_t arg) {
  auto* self = static_cast<Scheduler*>(ctx);
  const auto tid = static_cast<ThreadId>(arg);
  const std::function<void()> fn = std::exchange(self->thread(tid).parked, nullptr);
  if (self->exists(tid)) fn();
  self->dispatch(static_cast<std::size_t>(arg >> 32));
}

void Scheduler::slice_expired(std::size_t core_idx) {
  Core& core = cores_[core_idx];
  if (core.running == trace::kNoThread) return;
  Thread& t = thread(core.running);

  // Only yield if a waiting fair thread would be picked (lower vruntime
  // after we charge our consumption). Approximation: yield if anyone is
  // waiting — CFS would have picked them within a granule anyway.
  if (t.spec.sched_class == SchedClass::Fair && !core.fair_queue.empty()) {
    // Attribute the preemption to the dispatch winner — queued RT
    // first, else the min-vruntime fair waiter (dispatch()'s pick order
    // before the victim is requeued). Leaving it unattributed would
    // hide every timeslice rotation from the preemption-episode
    // analysis.
    ThreadId preemptor = trace::kNoThread;
    if (!core.rt_queue.empty()) {
      preemptor = core.rt_queue.front();
    } else {
      auto best = core.fair_queue.begin();
      for (auto it = core.fair_queue.begin(); it != core.fair_queue.end(); ++it) {
        if (thread(*it).vruntime < thread(*best).vruntime) best = it;
      }
      preemptor = *best;
    }
    deschedule(core_idx, trace::ThreadState::RunnablePreempted, preemptor);
    dispatch(core_idx);
  } else {
    arm_core_event(core_idx);
  }
}

void Scheduler::steal_for(std::size_t core_idx) {
  Core& target = cores_[core_idx];
  // RT first: pull the highest-priority queued RT thread anywhere.
  std::size_t src = cores_.size();
  int best_prio = std::numeric_limits<int>::min();
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (i == core_idx || cores_[i].rt_queue.empty()) continue;
    const Thread& cand = thread(cores_[i].rt_queue.front());
    if (can_run_on(cand, core_idx) && cand.spec.priority > best_prio) {
      best_prio = cand.spec.priority;
      src = i;
    }
  }
  if (src < cores_.size()) {
    auto& queue = cores_[src].rt_queue;
    const ThreadId tid = queue.front();
    queue.erase(queue.begin());
    target.rt_queue.push_back(tid);
    return;
  }
  // Fair: pull min-vruntime thread from the longest queue.
  src = cores_.size();
  std::size_t best_len = 0;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (i == core_idx) continue;
    std::size_t eligible = 0;
    for (ThreadId tid : cores_[i].fair_queue) {
      if (can_run_on(thread(tid), core_idx)) ++eligible;
    }
    if (eligible > best_len) {
      best_len = eligible;
      src = i;
    }
  }
  if (src < cores_.size()) {
    auto& queue = cores_[src].fair_queue;
    auto best = queue.end();
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (!can_run_on(thread(*it), core_idx)) continue;
      if (best == queue.end() || thread(*it).vruntime < thread(*best).vruntime) best = it;
    }
    if (best != queue.end()) {
      const ThreadId tid = *best;
      queue.erase(best);
      target.fair_queue.push_back(tid);
    }
  }
}

void Scheduler::terminate(ThreadId tid) {
  Thread& t = thread(tid);
  if (!t.alive) return;

  if (t.core >= 0) {
    const std::size_t core_idx = static_cast<std::size_t>(t.core);
    deschedule(core_idx, trace::ThreadState::Terminated, trace::kNoThread);
    t.alive = false;
    t.on_complete = nullptr;
    dispatch(core_idx);
  } else {
    for (Core& core : cores_) {
      auto rt = std::find(core.rt_queue.begin(), core.rt_queue.end(), tid);
      if (rt != core.rt_queue.end()) core.rt_queue.erase(rt);
      auto fair = std::find(core.fair_queue.begin(), core.fair_queue.end(), tid);
      if (fair != core.fair_queue.end()) core.fair_queue.erase(fair);
    }
    t.alive = false;
    t.on_complete = nullptr;
    t.state = trace::ThreadState::Terminated;
    tracer_.state_change(tid, engine_.now(), trace::ThreadState::Terminated);
  }
  // Abandon any preemption records this thread participates in.
  awaiting_run_.erase(tid);
  awaiting_wait_.erase(tid);
}

void Scheduler::terminate_process(ProcessId pid) {
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    if (threads_[i].alive && threads_[i].spec.pid == pid) {
      terminate(static_cast<ThreadId>(i + 1));
    }
  }
}

void Scheduler::open_preemption(ThreadId victim, ThreadId preemptor) {
  PendingPreemption pending;
  pending.record.victim = victim;
  pending.record.preemptor = preemptor;
  pending.record.at = engine_.now();
  pending_records_.push_back(pending);
  const std::int64_t idx = static_cast<std::int64_t>(pending_records_.size()) - 1;
  awaiting_run_[preemptor].push_back(idx);
  awaiting_wait_[victim].push_back(idx);
}

void Scheduler::note_started_running(ThreadId tid) {
  const auto it = awaiting_wait_.find(tid);
  if (it == awaiting_wait_.end()) return;
  for (const std::int64_t idx : it->second) {
    PendingPreemption& pending = pending_records_[static_cast<std::size_t>(idx)];
    pending.record.victim_wait = engine_.now() - pending.record.at;
    pending.wait_filled = true;
    if (pending.run_filled) tracer_.preemption(pending.record);
  }
  awaiting_wait_.erase(it);
}

void Scheduler::note_stopped_running(ThreadId tid, sim::Time ran_for) {
  const auto it = awaiting_run_.find(tid);
  if (it == awaiting_run_.end()) return;
  for (const std::int64_t idx : it->second) {
    PendingPreemption& pending = pending_records_[static_cast<std::size_t>(idx)];
    pending.record.preemptor_run = ran_for;
    pending.run_filled = true;
    if (pending.wait_filled) tracer_.preemption(pending.record);
  }
  awaiting_run_.erase(it);
}

void Scheduler::save(snapshot::ByteWriter& w) const {
  w.u32(1);  // section version
  w.f64(speed_scale_);
  w.u64(threads_.size());
  for (const Thread& t : threads_) {
    w.str(t.spec.name);
    w.u32(t.spec.pid);
    w.u8(static_cast<std::uint8_t>(t.spec.sched_class));
    w.i32(t.spec.priority);
    w.u64(t.spec.affinity);
    w.u8(static_cast<std::uint8_t>(t.state));
    w.f64(t.remaining_work);
    w.f64(t.vruntime);
    w.f64(t.weight);
    w.i32(t.core);
    w.i32(t.last_core);
    w.b(t.alive);
    w.u64(t.counters.context_switches);
    w.u64(t.counters.migrations);
    w.u64(t.counters.preemptions_suffered);
    w.f64(t.counters.cpu_refus_consumed);
  }
  w.u64(cores_.size());
  for (const Core& core : cores_) {
    w.f64(core.config.freq_ghz);
    w.u64(core.running);
    w.i64(core.run_start);
    w.f64(core.run_start_work);
    // Queue contents in queue order: the order itself is scheduling
    // state (RT FIFO within priority; fair pick scans in vector order
    // to break vruntime ties).
    w.u64(core.rt_queue.size());
    for (const ThreadId tid : core.rt_queue) w.u64(tid);
    w.u64(core.fair_queue.size());
    for (const ThreadId tid : core.fair_queue) w.u64(tid);
  }
}

std::uint64_t Scheduler::digest() const { return snapshot::state_digest(*this); }

}  // namespace mvqoe::sched
