// The DASH video client: the simulation counterpart of the paper's
// dash.js-in-Firefox setup (§4.1, Fig 7).
//
// Threads (named to match the paper's §5 trace analysis):
//   * player main ("Firefox"/"CrRendererMain"/"ExoPlayer") — segment
//     download/demux, periodic UI/JS upkeep;
//   * "MediaCodec" — per-frame decode, plus the process's working-set
//     touches (so reclaim-induced refaults stall *decode*);
//   * "SurfaceFlinger" — per-frame composition against the vsync
//     deadline; runs in its own (system) process and survives a client
//     crash.
//
// Frame-drop semantics follow §4.1: playback holds 1x; a frame whose
// decode or composition misses its presentation deadline is dropped and
// the pipeline skips ahead. A client crash (lmkd kill) marks the session
// crashed and the un-played remainder dropped — matching the paper's
// "video was either unplayable or the video client crashed" at Critical.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/memory_manager.hpp"
#include "net/link.hpp"
#include "sched/scheduler.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "video/abr_policy.hpp"
#include "video/asset.hpp"
#include "video/player_profile.hpp"

namespace mvqoe::video {

/// Recovery / robustness knobs for the fault-injection scenarios.
/// Defaults are conservative and backwards compatible: downloads retry a
/// few times with exponential backoff, but there is no watchdog and a
/// kill still ends the session terminally.
struct RecoveryConfig {
  /// Relaunch the client after an lmkd/fault kill instead of ending the
  /// session: cold restart (relaunch_delay, heap re-committed in stages),
  /// playback buffer lost, playback resumes at the next segment boundary.
  /// The kill is accounted as a rebuffer + relaunch, not a terminal crash.
  bool relaunch_on_kill = false;
  int max_relaunches = 1;
  /// Process cold-start cost (zygote fork + activity restart) before the
  /// relaunched client begins re-allocating its footprint.
  sim::Time relaunch_delay = sim::msec(2500);
  /// Per-segment retry budget for failed/timed-out downloads; exhausting
  /// it aborts the session (SessionMetrics::aborted) instead of hanging.
  int max_segment_retries = 6;
  sim::Time retry_backoff_initial = sim::msec(250);
  double retry_backoff_factor = 2.0;
  sim::Time retry_backoff_max = sim::sec(8);
  /// Session-level download watchdog: a segment transfer still in flight
  /// after this long is cancelled and retried (0 = disabled). Must exceed
  /// the worst honest transfer time of the ladder on the slowest link
  /// profile in use.
  sim::Time download_watchdog = 0;
};

struct SessionConfig {
  VideoAsset asset;
  Rung initial_rung;
  PlayerProfile profile = PlayerProfile::firefox();
  BitrateLadder ladder = BitrateLadder::youtube();
  sim::Time buffer_capacity = sim::sec(60);
  std::uint64_t seed = 1;

  /// Lognormal sigma of per-frame decode cost.
  double decode_sigma = 0.15;
  /// How late a frame may still be presented (half a 60 Hz vsync plus
  /// scheduling slack).
  sim::Time present_slack = sim::msec(10);
  /// How far ahead of its deadline the decoder works.
  sim::Time decode_lead = sim::msec(90);
  /// Working-set touch cadence on the decode thread, and the fractions of
  /// heap / code working set touched each period.
  sim::Time touch_period = sim::msec(250);
  double heap_touch_fraction = 0.30;
  double code_touch_fraction = 0.50;
  /// Player main-thread UI/JS upkeep.
  sim::Time ui_period = sim::msec(100);
  double ui_cost_refus = 900.0;
  /// Allocation churn of the player runtime (JS garbage, media-source
  /// buffer copies): allocated and freed continuously. Harmless with
  /// free memory to spare; under pressure it keeps kswapd reclaiming for
  /// the whole session — the §5 "kswapd becomes the most-run thread"
  /// behaviour — and exposes the player to direct-reclaim stalls.
  mem::Pages churn_pages_per_sec = mem::pages_from_mb(14);
  /// How long a churn allocation lives before the GC releases it.
  sim::Time churn_lifetime = sim::msec(300);
  /// Delay between first buffered segment and the first frame deadline.
  sim::Time startup_delay = sim::msec(150);
  /// The launch heap is committed in stages (a real app's footprint grows
  /// over seconds); this is the pause between stages. Without it the
  /// launch demand spikes faster than reclaim or lmkd can respond, which
  /// no real allocation pattern does.
  sim::Time launch_stage_pause = sim::msec(180);
  int launch_stages = 16;
  RecoveryConfig recovery;
  /// Fresh pid source for the relaunch path (a relaunched app gets a new
  /// pid from zygote). Null = reuse the old pid.
  std::function<mem::ProcessId()> next_pid;
};

struct SessionMetrics {
  std::int64_t frames_presented = 0;
  std::int64_t frames_dropped = 0;
  /// Frames forfeited by kills: the undecoded remainder of the segment
  /// being played plus decoded frames in flight toward the display. With
  /// a fixed-fps ladder, presented + dropped + lost_to_kill equals the
  /// asset's frame count for any run that ends in playout or a kill.
  std::int64_t frames_lost_to_kill = 0;
  bool crashed = false;
  sim::Time crash_time = -1;
  /// Unrecoverable download failure (retry budget exhausted); the session
  /// ends early rather than hanging.
  bool aborted = false;
  std::string abort_reason;
  sim::Time playback_start = -1;
  sim::Time finished_at = -1;
  /// Recovery accounting (see RecoveryConfig).
  int relaunches = 0;
  int rebuffer_events = 0;
  int segment_retries = 0;
  int download_timeouts = 0;
  std::vector<sim::Time> kill_times;
  /// Wall time from each absorbed kill to playback resuming.
  sim::Time relaunch_downtime = 0;
  /// Presented / dropped frame counts per media-time second.
  std::vector<int> presented_per_second;
  std::vector<int> dropped_per_second;
  /// Rung used for each downloaded segment.
  std::vector<Rung> rung_history;
  stats::Accumulator pss_mb;

  double drop_rate() const noexcept {
    const double total = static_cast<double>(frames_presented + frames_dropped);
    return total > 0.0 ? static_cast<double>(frames_dropped) / total : 0.0;
  }
};

class VideoSession {
 public:
  VideoSession(sim::Engine& engine, sched::Scheduler& scheduler, mem::MemoryManager& memory,
               net::Link& link, trace::Tracer& tracer, SessionConfig config,
               AbrPolicy* abr = nullptr);
  ~VideoSession();

  VideoSession(const VideoSession&) = delete;
  VideoSession& operator=(const VideoSession&) = delete;

  /// Register the client process under `pid` and begin: launch
  /// allocation, segment downloads, playback. `on_finished` fires once,
  /// when the video completes or the client crashes.
  void start(mem::ProcessId pid, std::function<void()> on_finished = nullptr);

  bool finished() const noexcept { return finished_; }
  const SessionMetrics& metrics() const noexcept { return metrics_; }
  mem::ProcessId pid() const noexcept { return pid_; }
  /// Asset frame count under a fixed-fps ladder (no ABR): every segment
  /// carries initial_rung.fps * segment_s frames, the padded tail
  /// included. This is the right-hand side of the frame-conservation
  /// invariant documented on SessionMetrics::frames_lost_to_kill.
  std::int64_t fixed_ladder_frame_total() const noexcept {
    return static_cast<std::int64_t>(total_segments_) * config_.initial_rung.fps *
           config_.asset.segment_s;
  }

  /// App-process threads (player main + MediaCodec) — the paper's "video
  /// client process threads" of Table 4 include these plus SurfaceFlinger.
  std::vector<trace::ThreadId> client_thread_ids() const;

  /// Serialize the full playback pipeline: download/buffer state, decode
  /// cursor, compose/present queues, ABR throughput estimate, the
  /// session RNG stream and all metrics. In-flight async callbacks, and
  /// the in-flight frames the stage continuations read, are
  /// replay-reconstructed (DESIGN.md §10).
  void save(snapshot::ByteWriter& w) const;
  std::uint64_t digest() const;
  trace::ThreadId surfaceflinger_tid() const noexcept { return sf_tid_; }
  trace::ThreadId mediacodec_tid() const noexcept { return mc_tid_; }
  trace::ThreadId compositor_tid() const noexcept { return comp_tid_; }

 private:
  struct Segment {
    int index = 0;
    Rung rung;
    mem::Pages pages = 0;
    int frames = 0;
    sim::Time start_pts = 0;
  };
  struct PresentItem {
    sim::Time deadline = 0;
    sim::Time pts = 0;
    Rung rung;
  };

  // Download pipeline (player thread).
  void maybe_download();
  void request_segment(int index, Rung rung, std::uint64_t bytes, int attempt);
  void retry_segment(int index, Rung rung, std::uint64_t bytes, int attempt);
  void on_segment_arrived(int index, Rung rung, mem::Pages pages);
  double buffered_seconds() const noexcept;

  // Decode pipeline (MediaCodec thread).
  void decode_next();
  /// Decode decoding_ once the decoder pool fits its rung.
  void decode_current_frame();
  void decoded();
  void ensure_decoder_pool(const Rung& rung, std::function<void()> next);
  void advance_frame();

  // In-process compositor stage (decode -> compositor -> SurfaceFlinger).
  void enqueue_compose(sim::Time deadline, sim::Time pts, const Rung& rung);
  void comp_pump();
  void composed();
  // Presentation (SurfaceFlinger thread); arg = the incarnation's epoch.
  void enqueue_present(sim::Time deadline, sim::Time pts, const Rung& rung);
  void sf_pump();
  void presented(std::uint64_t epoch);

  void spawn_client_threads();
  void launch_stage(int stage);
  /// Flat continuations of the player thread's bursts and sleeps; each
  /// arg carries the epoch at issue time (and the launch stage).
  void launch_paused(std::uint64_t epoch_stage);
  void demuxed(std::uint64_t epoch);
  void ui_ran(std::uint64_t epoch);
  void begin_playback();
  void note_presented(sim::Time pts);
  void note_dropped(sim::Time pts);
  std::size_t media_second(sim::Time pts) const noexcept;
  void handle_crash();
  void account_kill_losses();
  void relaunch();
  /// True when no decoded frame is waiting in or occupying the
  /// compositor / SurfaceFlinger stages.
  bool pipeline_idle() const noexcept;
  /// Finish playout once downloads are done, the buffer is drained AND
  /// the present pipeline is idle — finishing with a frame still in
  /// flight would forfeit it when the driver tears the client down,
  /// breaking frame conservation by one.
  void maybe_finish_playout();
  void finish();
  /// Flat-event trampoline for the download watchdog (ctx in watchdog_ctx_).
  static void on_watchdog(void* ctx, std::uint64_t);
  void sample_pss();
  void ui_tick();
  AbrContext make_context() const;

  bool alive() const noexcept;
  /// True while `epoch` is the current session incarnation. Every async
  /// callback captures the epoch at issue time; a kill bumps it, making
  /// all outstanding callbacks of the dead incarnation inert so they
  /// cannot corrupt the relaunched one.
  bool epoch_ok(int epoch) const noexcept { return epoch == epoch_; }

  sim::Engine& engine_;
  sched::Scheduler& scheduler_;
  mem::MemoryManager& memory_;
  net::Link& link_;
  trace::Tracer& tracer_;
  SessionConfig config_;
  std::unique_ptr<AbrPolicy> fallback_abr_;
  AbrPolicy* abr_ = nullptr;
  stats::Rng rng_;

  mem::ProcessId pid_ = 0;
  trace::ThreadId pl_tid_ = 0;
  trace::ThreadId mc_tid_ = 0;
  trace::ThreadId comp_tid_ = 0;
  trace::ThreadId sf_tid_ = 0;

  int total_segments_ = 0;
  int next_segment_ = 0;
  bool downloading_ = false;
  bool downloads_done_ = false;
  std::deque<Segment> buffer_;
  sim::Time buffered_media_end_ = 0;  // pts of last buffered media
  sim::Time next_segment_pts_ = 0;
  net::TransferId active_transfer_ = net::kInvalidTransfer;
  sim::EventId watchdog_event_ = sim::kInvalidEvent;
  /// Context for the (single) pending download watchdog, scheduled as a
  /// flat engine event instead of a per-segment closure.
  struct WatchdogCtx {
    int epoch = 0;
    net::TransferId xfer = net::kInvalidTransfer;
    int index = 0;
    Rung rung{};
    std::uint64_t bytes = 0;
    int attempt = 0;
  };
  WatchdogCtx watchdog_ctx_{};

  int epoch_ = 0;
  /// Wall time of pts_origin_'s presentation deadline; a frame at `pts`
  /// is due at playback_base_ + (pts - pts_origin_). Re-derived per
  /// incarnation so a relaunch resumes with achievable deadlines.
  sim::Time playback_base_ = 0;
  sim::Time pts_origin_ = 0;
  int resume_segment_ = 0;
  sim::Time pending_kill_time_ = -1;

  bool playback_started_ = false;
  bool waiting_for_segment_ = false;
  int frame_in_segment_ = 0;
  Rung current_rung_;
  Rung pool_rung_;
  mem::Pages pool_pages_ = 0;
  sim::Time last_touch_ = 0;
  double throughput_estimate_mbps_ = 0.0;

  // The frame each stage has in flight, read by the stage's continuation
  // (each stage works one frame at a time), and the segment being demuxed.
  // A dead incarnation's MediaCodec and Compositor bursts die with their
  // threads; SurfaceFlinger's checks the epoch it was issued under.
  PresentItem decoding_;
  PresentItem composing_;
  PresentItem presenting_;
  Segment demuxing_;

  std::deque<PresentItem> compose_queue_;
  bool comp_busy_ = false;
  std::deque<PresentItem> present_queue_;
  bool sf_busy_ = false;

  bool started_ = false;
  bool finished_ = false;
  bool crashed_ = false;
  SessionMetrics metrics_;
  std::function<void()> on_finished_;
  std::unique_ptr<sim::PeriodicTask> pss_sampler_;
  std::unique_ptr<sim::PeriodicTask> ui_task_;
};

}  // namespace mvqoe::video
