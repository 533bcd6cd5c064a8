#include "trace/tracer.hpp"

#include <algorithm>
#include <stdexcept>

namespace mvqoe::trace {

const char* to_string(ThreadState s) noexcept {
  switch (s) {
    case ThreadState::Created: return "Created";
    case ThreadState::Running: return "Running";
    case ThreadState::Runnable: return "Runnable";
    case ThreadState::RunnablePreempted: return "Runnable (Preempted)";
    case ThreadState::Sleeping: return "Sleeping";
    case ThreadState::BlockedIo: return "Blocked I/O";
    case ThreadState::Terminated: return "Terminated";
  }
  return "?";
}

const char* to_string(TraceLevel level) noexcept {
  switch (level) {
    case TraceLevel::Counters: return "Counters";
    case TraceLevel::Full: return "Full";
  }
  return "?";
}

const char* to_string(InstantKind kind) noexcept {
  switch (kind) {
    case InstantKind::ProcessKilled: return "ProcessKilled";
    case InstantKind::ClientCrashed: return "ClientCrashed";
    case InstantKind::PressureState: return "PressureState";
    case InstantKind::TrimSignal: return "TrimSignal";
    case InstantKind::FramePresented: return "FramePresented";
    case InstantKind::FrameDropped: return "FrameDropped";
    case InstantKind::DirectReclaim: return "DirectReclaim";
    case InstantKind::SegmentDownloaded: return "SegmentDownloaded";
    case InstantKind::RungSwitch: return "RungSwitch";
    case InstantKind::LinkDown: return "LinkDown";
    case InstantKind::LinkUp: return "LinkUp";
    case InstantKind::LinkRateChange: return "LinkRateChange";
    case InstantKind::StorageDegraded: return "StorageDegraded";
    case InstantKind::StorageRestored: return "StorageRestored";
    case InstantKind::ThermalThrottle: return "ThermalThrottle";
    case InstantKind::ThermalRestored: return "ThermalRestored";
    case InstantKind::FaultKill: return "FaultKill";
    case InstantKind::SegmentRetry: return "SegmentRetry";
    case InstantKind::DownloadTimeout: return "DownloadTimeout";
    case InstantKind::SessionRelaunch: return "SessionRelaunch";
  }
  return "?";
}

void Tracer::require_full(const char* reader) const {
  if (!full()) {
    throw std::logic_error(std::string(reader) +
                           " reads state intervals or preemption records, but the tracer "
                           "records at level " + to_string(level_) +
                           "; build the world at TraceLevel::Full");
  }
}

void Tracer::register_thread(const ThreadMeta& meta) { threads_[meta.tid] = meta; }

const ThreadMeta* Tracer::thread(ThreadId tid) const noexcept {
  const auto it = threads_.find(tid);
  return it == threads_.end() ? nullptr : &it->second;
}

void Tracer::record_state_change(ThreadId tid, sim::Time at, ThreadState next,
                                 ThreadId preemptor) {
  if (tid >= open_.size()) open_.resize(tid + 1);
  auto& open = open_[tid];
  if (open.open && at > open.begin) {
    intervals_.push_back(StateInterval{tid, open.begin, at, open.state, open.preemptor});
  }
  open.begin = at;
  open.state = next;
  open.preemptor = next == ThreadState::RunnablePreempted ? preemptor : kNoThread;
  open.open = next != ThreadState::Terminated;
}

void Tracer::instant(InstantKind kind, sim::Time at, ThreadId tid, std::int64_t value) {
  instants_.push_back(InstantEvent{kind, at, tid, value});
}

void Tracer::counter(const std::string& name, sim::Time at, double value) {
  counters_.push_back(CounterSample{name, at, value});
}

void Tracer::finalize(sim::Time at) {
  finalized_at_ = std::max(finalized_at_, at);
  for (ThreadId tid = 0; tid < open_.size(); ++tid) {
    OpenInterval& open = open_[tid];
    if (open.open && at > open.begin) {
      intervals_.push_back(StateInterval{tid, open.begin, at, open.state, open.preemptor});
      open.begin = at;
    }
  }
}

}  // namespace mvqoe::trace
