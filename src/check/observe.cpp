#include "check/observe.hpp"

namespace mvqoe::check {

WorldObservation WorldObserver::observe(const scenario::ScenarioDriver& driver, bool final_obs) {
  const core::Testbed& bed = driver.testbed();
  const mem::MemoryManager& memory = bed.memory;
  const sched::Scheduler& scheduler = bed.scheduler;
  const trace::Tracer& tracer = bed.tracer;
  tracer.require_full("check::WorldObserver");

  WorldObservation obs;
  obs.at = bed.engine.now();
  obs.offset = driver.video_start() >= 0 ? obs.at - driver.video_start() : 0;
  obs.final_obs = final_obs;

  obs.engine.invariants_ok = bed.engine.check_invariants();
  obs.engine.livelock_trips = bed.engine.livelock_trips();
  obs.engine.pending_events = bed.engine.pending_events();

  const mem::MemoryConfig& mc = memory.config();
  obs.mem.total = mc.total;
  obs.mem.kernel_reserved = mc.kernel_reserved;
  obs.mem.free = memory.free_pages();
  obs.mem.available = memory.available_pages();
  obs.mem.anon = memory.anon_pages();
  obs.mem.file = memory.file_pages();
  obs.mem.zram_stored = memory.zram_stored();
  obs.mem.zram_capacity = mc.zram_capacity;
  obs.mem.wm_min = mc.watermark_min;
  obs.mem.wm_low = mc.watermark_low;
  obs.mem.wm_high = mc.watermark_high;
  obs.mem.kswapd_active = memory.kswapd_active();
  obs.mem.kswapd_wakeups = memory.vmstat().kswapd_wakeups;
  obs.mem.pressure = memory.pressure_P();
  const auto conservation = memory.check_conservation();
  obs.mem.conservation_ok = conservation.ok;
  obs.mem.conservation_detail = conservation.detail;
  obs.mem.charter = memory.kill_charter();

  const net::Link& link = bed.link;
  obs.net.cc_mode = link.cc_mode();
  if (link.cc_mode()) {
    obs.net.cc = link.net().cc;
    obs.net.bytes_delivered = link.bytes_delivered();
    obs.net.retired_delivered = link.retired_delivered();
    obs.net.backlog_bytes = link.backlog_bytes();
    obs.net.queue_capacity_bytes = link.queue_capacity_bytes();
    for (const net::FlowStats& fs : link.flow_stats()) {
      NetFlowObs f;
      f.id = fs.id;
      f.total_bytes = fs.total_bytes;
      f.delivered_bytes = fs.delivered_bytes;
      f.inflight_bytes = fs.inflight_bytes;
      f.cwnd_bytes = fs.cwnd_bytes;
      f.pacing_bytes_per_usec = fs.pacing_bytes_per_usec;
      obs.net.flows.push_back(f);
    }
  }

  obs.threads.reserve(scheduler.thread_count());
  for (sched::ThreadId tid = 1; tid <= scheduler.thread_count(); ++tid) {
    ThreadObs t;
    t.tid = tid;
    t.state = scheduler.state(tid);
    t.vruntime = scheduler.vruntime(tid);
    obs.threads.push_back(t);
  }

  const auto& intervals = tracer.intervals();
  obs.new_intervals.assign(intervals.begin() + static_cast<std::ptrdiff_t>(interval_cursor_),
                           intervals.end());
  interval_cursor_ = intervals.size();

  const auto& kills = memory.kill_audits();
  obs.new_kills.assign(kills.begin() + static_cast<std::ptrdiff_t>(kill_cursor_), kills.end());
  kill_cursor_ = kills.size();

  obs.videos.reserve(driver.video_count());
  for (std::size_t i = 0; i < driver.video_count(); ++i) {
    const scenario::VideoSessionWorkload& w = driver.video(i);
    VideoObs v;
    v.label = w.spec().label;
    if (const video::VideoSession* session = w.session()) {
      const video::SessionMetrics& m = session->metrics();
      v.presented = m.frames_presented;
      v.dropped = m.frames_dropped;
      v.lost_to_kill = m.frames_lost_to_kill;
      // Frame conservation only holds for a fixed-fps ladder; an ABR
      // policy switching fps changes the per-segment frame count.
      if (w.spec().abr == nullptr) v.frame_total = session->fixed_ladder_frame_total();
      v.finished = session->finished();
      v.crashed = m.crashed;
      v.aborted = m.aborted;
      v.relaunches = m.relaunches;
    }
    obs.videos.push_back(std::move(v));
  }

  return obs;
}

}  // namespace mvqoe::check
