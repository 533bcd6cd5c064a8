#include "check/oracles.hpp"

#include <climits>
#include <cmath>
#include <sstream>

namespace mvqoe::check {
namespace {

Violation make(const WorldObservation& obs, const std::string& oracle, std::string detail) {
  Violation v;
  v.oracle = oracle;
  v.detail = std::move(detail);
  v.at = obs.at;
  v.offset = obs.offset;
  return v;
}

}  // namespace

// --- MemConservationOracle --------------------------------------------------

std::optional<Violation> MemConservationOracle::check(const WorldObservation& obs) {
  if (obs.mem.conservation_ok) return std::nullopt;
  return make(obs, name(), obs.mem.conservation_detail);
}

// --- WatermarkOracle --------------------------------------------------------

std::optional<Violation> WatermarkOracle::check(const WorldObservation& obs) {
  const MemObs& m = obs.mem;
  std::ostringstream why;
  if (!(m.wm_min > 0 && m.wm_min <= m.wm_low && m.wm_low <= m.wm_high)) {
    why << "watermark ordering violated: min=" << m.wm_min << " low=" << m.wm_low
        << " high=" << m.wm_high;
  } else if (m.wm_high > m.total - m.kernel_reserved) {
    why << "watermark high " << m.wm_high << " above reclaimable ceiling "
        << (m.total - m.kernel_reserved);
  } else if (m.free < 0 || m.anon < 0 || m.file < 0 || m.zram_stored < 0) {
    why << "negative pool: free=" << m.free << " anon=" << m.anon << " file=" << m.file
        << " zram=" << m.zram_stored;
  } else if (m.zram_stored > m.zram_capacity) {
    why << "zram stored " << m.zram_stored << " exceeds capacity " << m.zram_capacity;
  } else if (m.available < m.free || m.available > m.free + m.file) {
    why << "available " << m.available << " outside [free=" << m.free
        << ", free+file=" << (m.free + m.file) << "]";
  } else {
    return std::nullopt;
  }
  return make(obs, name(), why.str());
}

// --- KswapdOracle -----------------------------------------------------------

std::optional<Violation> KswapdOracle::check(const WorldObservation& obs) {
  const MemObs& m = obs.mem;
  std::optional<Violation> out;
  if (have_prev_ && m.kswapd_wakeups < prev_wakeups_) {
    std::ostringstream why;
    why << "kswapd wakeup counter went backwards: " << prev_wakeups_ << " -> " << m.kswapd_wakeups;
    out = make(obs, name(), why.str());
  } else if (!m.kswapd_active && m.free < m.wm_min) {
    std::ostringstream why;
    why << "kswapd sleeping with free=" << m.free << " below watermark min=" << m.wm_min;
    out = make(obs, name(), why.str());
  } else if (have_prev_ && !prev_active_ && m.kswapd_active && m.kswapd_wakeups <= prev_wakeups_) {
    std::ostringstream why;
    why << "kswapd became active without a recorded wakeup (counter stuck at " << m.kswapd_wakeups
        << ")";
    out = make(obs, name(), why.str());
  }
  have_prev_ = true;
  prev_active_ = m.kswapd_active;
  prev_wakeups_ = m.kswapd_wakeups;
  return out;
}

// --- LmkdOrderOracle --------------------------------------------------------

std::optional<Violation> LmkdOrderOracle::check(const WorldObservation& obs) {
  using Audit = mem::MemoryManager::KillAudit;
  const mem::KillCharter& charter = obs.mem.charter;
  sim::Time prev_at = -1;
  for (const Audit& kill : obs.new_kills) {
    if (prev_at >= 0 && kill.at < prev_at) {
      std::ostringstream why;
      why << "kill audit times went backwards: " << prev_at << " -> " << kill.at;
      return make(obs, name(), why.str());
    }
    prev_at = kill.at;
    if (kill.reason == Audit::Reason::External) continue;

    // Victim selection: every killer respects the recorded floor...
    if (kill.oom_adj < kill.min_adj) {
      std::ostringstream why;
      why << "kill victim pid=" << kill.pid << " adj=" << kill.oom_adj
          << " below the killer's floor min_adj=" << kill.min_adj;
      return make(obs, name(), why.str());
    }
    // ...and under the HighestAdj rule (Android's pick_victim, and
    // always the OOM killer — that path is mechanism, not policy), the
    // victim must also be the highest killable adj alive. FloorOnly
    // policies (swam) score within the eligible set instead.
    const bool highest_adj_rule =
        kill.reason == Audit::Reason::Oom ||
        charter.victim_rule == mem::KillCharter::VictimRule::HighestAdj;
    if (highest_adj_rule && kill.oom_adj != kill.max_killable_adj) {
      std::ostringstream why;
      why << "kill victim pid=" << kill.pid << " adj=" << kill.oom_adj
          << " is not the highest killable adj alive (" << kill.max_killable_adj << ")";
      return make(obs, name(), why.str());
    }

    if (kill.reason == Audit::Reason::Lmkd) {
      // lmkd only fires inside the charter's pressure/minfree band;
      // replay the decision with the same function the live manager
      // uses, from the recorded decision inputs.
      const int expected = mem::replay_kill_floor(charter, kill.pressure, kill.available,
                                                  kill.zram_stored, obs.mem.zram_capacity);
      if (expected != kill.min_adj) {
        std::ostringstream why;
        why << "lmkd kill pid=" << kill.pid << " used min_adj=" << kill.min_adj
            << " but the " << charter.policy_name << " charter gives " << expected
            << " (P=" << kill.pressure << " available=" << kill.available
            << " zram=" << kill.zram_stored << ")";
        return make(obs, name(), why.str());
      }
      if (kill.at - last_lmkd_at_ < charter.kill_cooldown) {
        std::ostringstream why;
        why << "lmkd kills " << (kill.at - last_lmkd_at_) << " apart (t=" << kill.at
            << "): the " << charter.kill_cooldown << " post-kill cooldown forbids this";
        return make(obs, name(), why.str());
      }
      last_lmkd_at_ = kill.at;
    } else {  // Oom
      // The kernel OOM killer prefers the background floor and escalates
      // to the foreground only when nothing lower-priority exists.
      if (kill.min_adj != charter.background_adj_floor &&
          kill.min_adj != mem::OomAdj::kForeground) {
        std::ostringstream why;
        why << "oom kill pid=" << kill.pid << " used unexpected floor min_adj=" << kill.min_adj;
        return make(obs, name(), why.str());
      }
      if (kill.min_adj == mem::OomAdj::kForeground &&
          kill.oom_adj >= charter.background_adj_floor) {
        std::ostringstream why;
        why << "oom kill escalated to the foreground floor while a background victim (adj="
            << kill.oom_adj << ") existed";
        return make(obs, name(), why.str());
      }
    }
  }
  return std::nullopt;
}

// --- SchedStateOracle -------------------------------------------------------

std::optional<Violation> SchedStateOracle::check(const WorldObservation& obs) {
  // The tracer suppresses zero-length intervals, so a run of
  // instantaneous transitions (Running -> Sleeping -> Runnable ->
  // Running at one instant, the run_work self-loop) collapses and any
  // pair of legal states can appear adjacent. What stays observable:
  // intervals have positive length, tile time exactly, a Created record
  // can only open a thread's history, Terminated intervals never exist
  // (the transition just closes the last one), and the preemptor
  // annotation appears exactly on RunnablePreempted intervals.
  for (const trace::StateInterval& iv : obs.new_intervals) {
    PerThread& t = threads_[iv.tid];
    std::ostringstream why;
    if (iv.end <= iv.begin) {
      why << "tid " << iv.tid << ": non-positive-length " << trace::to_string(iv.state)
          << " interval (" << iv.begin << " -> " << iv.end
          << "); the tracer suppresses those";
    } else if (iv.state == trace::ThreadState::Terminated) {
      why << "tid " << iv.tid << ": Terminated recorded as an interval at t=" << iv.begin
          << "; termination only closes the previous one";
    } else if (t.seen && iv.state == trace::ThreadState::Created) {
      why << "tid " << iv.tid << ": Created interval at t=" << iv.begin
          << " after the thread already has history";
    } else if (t.seen && iv.begin != t.last_end) {
      why << "tid " << iv.tid << ": interval gap/overlap at t=" << iv.begin << " (previous "
          << trace::to_string(t.last_state) << " ended at " << t.last_end << ")";
    } else if (iv.state == trace::ThreadState::RunnablePreempted &&
               (iv.preemptor == trace::kNoThread || iv.preemptor == iv.tid)) {
      why << "tid " << iv.tid << ": RunnablePreempted interval at t=" << iv.begin
          << " without a valid preemptor";
    } else if (iv.state != trace::ThreadState::RunnablePreempted &&
               iv.preemptor != trace::kNoThread) {
      why << "tid " << iv.tid << ": " << trace::to_string(iv.state)
          << " interval carries preemptor " << iv.preemptor;
    }
    if (!why.str().empty()) {
      Violation v = make(obs, name(), why.str());
      return v;
    }
    t.seen = true;
    t.last_state = iv.state;
    t.last_end = iv.end;
  }
  return std::nullopt;
}

// --- VruntimeOracle ---------------------------------------------------------

std::optional<Violation> VruntimeOracle::check(const WorldObservation& obs) {
  for (const ThreadObs& t : obs.threads) {
    auto it = last_.find(t.tid);
    if (it != last_.end() && t.vruntime < it->second) {
      std::ostringstream why;
      why << "tid " << t.tid << ": vruntime went backwards " << it->second << " -> " << t.vruntime;
      return make(obs, name(), why.str());
    }
    last_[t.tid] = t.vruntime;
  }
  return std::nullopt;
}

// --- VideoFrameOracle -------------------------------------------------------

std::optional<Violation> VideoFrameOracle::check(const WorldObservation& obs) {
  for (const VideoObs& v : obs.videos) {
    Prev& p = prev_[v.label];
    std::ostringstream why;
    if (v.presented < p.presented || v.dropped < p.dropped || v.lost_to_kill < p.lost) {
      why << "session " << v.label << ": frame counters went backwards (presented " << p.presented
          << "->" << v.presented << ", dropped " << p.dropped << "->" << v.dropped << ", lost "
          << p.lost << "->" << v.lost_to_kill << ")";
    } else if (v.presented < 0 || v.dropped < 0 || v.lost_to_kill < 0) {
      why << "session " << v.label << ": negative frame counter";
    } else if (v.frame_total > 0 &&
               v.presented + v.dropped + v.lost_to_kill > v.frame_total) {
      why << "session " << v.label << ": presented+dropped+lost = "
          << (v.presented + v.dropped + v.lost_to_kill) << " exceeds asset frame total "
          << v.frame_total;
    }
    if (!why.str().empty()) return make(obs, name(), why.str());
    p.presented = v.presented;
    p.dropped = v.dropped;
    p.lost = v.lost_to_kill;
  }
  return std::nullopt;
}

std::optional<Violation> VideoFrameOracle::final_check(const WorldObservation& obs) {
  for (const VideoObs& v : obs.videos) {
    // Exact conservation holds for fixed-ladder sessions that ran to
    // playout or a kill — relaunch recoveries included (re-downloaded
    // segments are never double-counted) — but not horizon timeouts or
    // download aborts.
    if (v.frame_total <= 0 || !v.finished || v.aborted) continue;
    const std::int64_t sum = v.presented + v.dropped + v.lost_to_kill;
    if (sum != v.frame_total) {
      std::ostringstream why;
      why << "session " << v.label << ": presented+dropped+lost = " << sum
          << " != asset frame total " << v.frame_total << " (presented=" << v.presented
          << " dropped=" << v.dropped << " lost=" << v.lost_to_kill << ")";
      return make(obs, name(), why.str());
    }
  }
  return std::nullopt;
}

// --- EngineOracle -----------------------------------------------------------

std::optional<Violation> EngineOracle::check(const WorldObservation& obs) {
  if (!obs.engine.invariants_ok) {
    return make(obs, name(), "event-queue bookkeeping audit failed (check_invariants)");
  }
  if (obs.engine.livelock_trips > 0) {
    std::ostringstream why;
    why << "livelock tripwire fired " << obs.engine.livelock_trips << " time(s)";
    return make(obs, name(), why.str());
  }
  if (obs.engine.pending_events > kMaxPendingEvents) {
    std::ostringstream why;
    why << "pending-event leak: " << obs.engine.pending_events << " events queued (limit "
        << kMaxPendingEvents << ")";
    return make(obs, name(), why.str());
  }
  return std::nullopt;
}

// --- Net oracles ------------------------------------------------------------

std::optional<Violation> NetConservationOracle::check(const WorldObservation& obs) {
  if (!obs.net.cc_mode) return std::nullopt;
  std::uint64_t live = 0;
  for (const NetFlowObs& f : obs.net.flows) live += f.delivered_bytes;
  if (obs.net.retired_delivered + live != obs.net.bytes_delivered) {
    std::ostringstream why;
    why << "net byte conservation broken: retired " << obs.net.retired_delivered << " + live "
        << live << " != link delivered " << obs.net.bytes_delivered;
    return make(obs, name(), why.str());
  }
  return std::nullopt;
}

std::optional<Violation> NetQueueOracle::check(const WorldObservation& obs) {
  if (!obs.net.cc_mode) return std::nullopt;
  if (obs.net.backlog_bytes > obs.net.queue_capacity_bytes) {
    std::ostringstream why;
    why << "bottleneck backlog " << obs.net.backlog_bytes << " exceeds droptail capacity "
        << obs.net.queue_capacity_bytes;
    return make(obs, name(), why.str());
  }
  return std::nullopt;
}

std::optional<Violation> NetCwndOracle::check(const WorldObservation& obs) {
  if (!obs.net.cc_mode) return std::nullopt;
  constexpr double kCwndCeiling = 64.0 * 1024.0 * 1024.0;
  for (const NetFlowObs& f : obs.net.flows) {
    std::ostringstream why;
    // The fifo controller reports cwnd 0 (no window); every real
    // controller clamps to at least one packet.
    if (obs.net.cc != "fifo" && (f.cwnd_bytes < 1.0 || f.cwnd_bytes > kCwndCeiling)) {
      why << "flow " << f.id << ": cwnd " << f.cwnd_bytes << " outside [1 pkt, 64 MiB]";
    } else if (!(f.pacing_bytes_per_usec >= 0.0) ||
               !std::isfinite(f.pacing_bytes_per_usec)) {
      why << "flow " << f.id << ": pacing rate " << f.pacing_bytes_per_usec
          << " negative or non-finite";
    }
    if (!why.str().empty()) return make(obs, name(), why.str());
  }
  return std::nullopt;
}

std::optional<Violation> NetProgressOracle::check(const WorldObservation& obs) {
  if (!obs.net.cc_mode) return std::nullopt;
  for (const NetFlowObs& f : obs.net.flows) {
    std::ostringstream why;
    auto it = last_delivered_.find(f.id);
    if (f.delivered_bytes > f.total_bytes) {
      why << "flow " << f.id << ": delivered " << f.delivered_bytes << " exceeds transfer size "
          << f.total_bytes;
    } else if (it != last_delivered_.end() && f.delivered_bytes < it->second) {
      why << "flow " << f.id << ": delivered went backwards " << it->second << " -> "
          << f.delivered_bytes;
    }
    if (!why.str().empty()) return make(obs, name(), why.str());
    last_delivered_[f.id] = f.delivered_bytes;
  }
  return std::nullopt;
}

// --- OracleSuite ------------------------------------------------------------

OracleSuite::OracleSuite() {
  oracles_.push_back(std::make_unique<EngineOracle>());
  oracles_.push_back(std::make_unique<MemConservationOracle>());
  oracles_.push_back(std::make_unique<WatermarkOracle>());
  oracles_.push_back(std::make_unique<KswapdOracle>());
  oracles_.push_back(std::make_unique<LmkdOrderOracle>());
  oracles_.push_back(std::make_unique<SchedStateOracle>());
  oracles_.push_back(std::make_unique<VruntimeOracle>());
  oracles_.push_back(std::make_unique<VideoFrameOracle>());
  oracles_.push_back(std::make_unique<NetConservationOracle>());
  oracles_.push_back(std::make_unique<NetQueueOracle>());
  oracles_.push_back(std::make_unique<NetCwndOracle>());
  oracles_.push_back(std::make_unique<NetProgressOracle>());
}

std::optional<Violation> OracleSuite::check(const WorldObservation& obs) {
  for (auto& oracle : oracles_) {
    if (auto v = oracle->check(obs)) return v;
  }
  return std::nullopt;
}

std::optional<Violation> OracleSuite::final_check(const WorldObservation& obs) {
  if (auto v = check(obs)) return v;
  for (auto& oracle : oracles_) {
    if (auto v = oracle->final_check(obs)) return v;
  }
  return std::nullopt;
}

std::vector<Violation> OracleSuite::check_all(const WorldObservation& obs) {
  std::vector<Violation> out;
  for (auto& oracle : oracles_) {
    if (auto v = oracle->check(obs)) out.push_back(*v);
    if (auto v = oracle->final_check(obs)) out.push_back(*v);
  }
  return out;
}

std::vector<std::string> oracle_names() {
  OracleSuite suite;
  std::vector<std::string> names;
  names.reserve(suite.oracles().size());
  for (const auto& oracle : suite.oracles()) names.push_back(oracle->name());
  return names;
}

}  // namespace mvqoe::check
