#include "video/session.hpp"

#include <algorithm>
#include <cmath>

#include "snapshot/digest.hpp"
#include "snapshot/rng_io.hpp"

namespace mvqoe::video {

namespace {

void write_rung(snapshot::ByteWriter& w, const Rung& rung) {
  w.i32(rung.resolution.width);
  w.i32(rung.resolution.height);
  w.i32(rung.fps);
  w.i32(rung.bitrate_kbps);
}

void write_accumulator(snapshot::ByteWriter& w, const stats::Accumulator& acc) {
  w.u64(acc.count());
  w.f64(acc.mean());
  w.f64(acc.variance());
  w.f64(acc.min());
  w.f64(acc.max());
}

/// Lognormal multiplier with unit mean: exp(N(-sigma^2/2, sigma)).
double unit_lognormal(stats::Rng& rng, double sigma) {
  return std::exp(rng.normal(-0.5 * sigma * sigma, sigma));
}

sim::Time frame_pts(sim::Time segment_start, int frame_index, int fps) noexcept {
  return segment_start + static_cast<sim::Time>(frame_index) * 1'000'000 / fps;
}

}  // namespace

VideoSession::VideoSession(sim::Engine& engine, sched::Scheduler& scheduler,
                           mem::MemoryManager& memory, net::Link& link, trace::Tracer& tracer,
                           SessionConfig config, AbrPolicy* abr)
    : engine_(engine),
      scheduler_(scheduler),
      memory_(memory),
      link_(link),
      tracer_(tracer),
      config_(std::move(config)),
      rng_(config_.seed),
      current_rung_(config_.initial_rung),
      pool_rung_(config_.initial_rung) {
  if (abr == nullptr) {
    fallback_abr_ = std::make_unique<FixedAbr>(config_.initial_rung);
    abr_ = fallback_abr_.get();
  } else {
    abr_ = abr;
  }
  total_segments_ = (config_.asset.duration_s + config_.asset.segment_s - 1) /
                    config_.asset.segment_s;
}

VideoSession::~VideoSession() = default;

bool VideoSession::alive() const noexcept {
  return !crashed_ && memory_.registry().alive(pid_);
}

std::vector<trace::ThreadId> VideoSession::client_thread_ids() const {
  return {pl_tid_, mc_tid_, comp_tid_};
}

void VideoSession::spawn_client_threads() {
  sched::ThreadSpec player;
  player.name = config_.profile.main_thread;
  player.pid = pid_;
  player.process_name = config_.profile.process_name;
  pl_tid_ = scheduler_.create_thread(player);

  sched::ThreadSpec codec;
  codec.name = "MediaCodec";
  codec.pid = pid_;
  codec.process_name = config_.profile.process_name;
  mc_tid_ = scheduler_.create_thread(codec);

  sched::ThreadSpec compositor;
  compositor.name = "Compositor";
  compositor.pid = pid_;
  compositor.process_name = config_.profile.process_name;
  comp_tid_ = scheduler_.create_thread(compositor);
}

void VideoSession::start(mem::ProcessId pid, std::function<void()> on_finished) {
  pid_ = pid;
  on_finished_ = std::move(on_finished);
  started_ = true;

  memory_.register_process(pid_, config_.profile.process_name, mem::OomAdj::kForeground,
                           [this] { handle_crash(); });
  spawn_client_threads();

  sched::ThreadSpec sf;
  sf.name = "SurfaceFlinger";
  sf.pid = 3;  // system process: survives a client crash
  sf.process_name = "surfaceflinger";
  sf.priority = -8;  // boosted, but still Fair class (preemptible by mmcqd)
  sf_tid_ = scheduler_.create_thread(sf);

  // Launch footprint: heap in stages, then code, on the player thread so
  // the launch itself stalls under pressure (as real app launches do).
  launch_stage(0);
}

void VideoSession::launch_stage(int stage) {
  if (!alive() || finished_) return;
  const int epoch = epoch_;
  const int stages = std::max(1, config_.launch_stages);
  if (stage >= stages) {
    memory_.set_hot_pages(pid_, config_.profile.base_heap * 2 / 5);
    memory_.map_file(pid_, config_.profile.code_working_set, pl_tid_, [this, epoch](bool ok) {
      if (!ok || !epoch_ok(epoch) || !alive()) return;
      pss_sampler_ = std::make_unique<sim::PeriodicTask>(engine_, sim::msec(500),
                                                         [this] { sample_pss(); });
      pss_sampler_->start();
      ui_task_ = std::make_unique<sim::PeriodicTask>(engine_, config_.ui_period,
                                                     [this] { ui_tick(); });
      ui_task_->start();
      maybe_download();
    });
    return;
  }
  const mem::Pages slice = config_.profile.base_heap / stages;
  memory_.alloc_anon(pid_, slice, pl_tid_, [this, stage, epoch](bool ok) {
    if (!ok || !epoch_ok(epoch) || !alive()) return;
    const std::uint64_t epoch_stage =
        static_cast<std::uint64_t>(epoch) << 32 | static_cast<std::uint32_t>(stage);
    scheduler_.sleep_for(pl_tid_, config_.launch_stage_pause,
                         sim::flat_method<&VideoSession::launch_paused>, this, epoch_stage);
  });
}

void VideoSession::launch_paused(std::uint64_t epoch_stage) {
  if (epoch_ok(static_cast<int>(epoch_stage >> 32))) {
    launch_stage(static_cast<int>(epoch_stage & 0xffffffffu) + 1);
  }
}

// --- Download pipeline -------------------------------------------------------

double VideoSession::buffered_seconds() const noexcept {
  sim::Time playhead = pts_origin_;
  if (playback_started_) {
    playhead = std::max(playhead, pts_origin_ + engine_.now() - playback_base_);
  }
  return std::max(0.0, sim::to_seconds(buffered_media_end_ - playhead));
}

AbrContext VideoSession::make_context() const {
  AbrContext context;
  context.buffer_seconds = buffered_seconds();
  context.throughput_mbps = throughput_estimate_mbps_;
  context.current = current_rung_;
  context.ladder = &config_.ladder;
  context.pressure = memory_.level();
  context.segment_index = next_segment_;
  // Drop rate over the trailing ~5 media seconds.
  std::int64_t presented = 0;
  std::int64_t dropped = 0;
  const std::size_t seconds = metrics_.presented_per_second.size();
  for (std::size_t i = seconds > 5 ? seconds - 5 : 0; i < seconds; ++i) {
    presented += metrics_.presented_per_second[i];
    if (i < metrics_.dropped_per_second.size()) dropped += metrics_.dropped_per_second[i];
  }
  const double total = static_cast<double>(presented + dropped);
  context.recent_drop_rate = total > 0.0 ? static_cast<double>(dropped) / total : 0.0;
  return context;
}

void VideoSession::maybe_download() {
  if (!alive() || finished_ || downloading_ || downloads_done_) return;
  if (next_segment_ >= total_segments_) {
    downloads_done_ = true;
    return;
  }
  if (buffered_seconds() >= sim::to_seconds(config_.buffer_capacity)) {
    const int epoch = epoch_;
    engine_.schedule(sim::msec(500), [this, epoch] {
      if (epoch_ok(epoch)) maybe_download();
    });
    return;
  }

  const Rung rung = abr_->choose(make_context());
  if (!(rung == current_rung_)) {
    current_rung_ = rung;
    tracer_.instant(trace::InstantKind::RungSwitch, engine_.now(), pl_tid_, rung.bitrate_kbps);
  }
  downloading_ = true;
  const double size_jitter = unit_lognormal(rng_, config_.asset.size_sigma);
  const auto bytes = static_cast<std::uint64_t>(static_cast<double>(rung.bitrate_kbps) * 1000.0 /
                                                8.0 * config_.asset.segment_s * size_jitter);
  const int index = next_segment_;
  ++next_segment_;
  request_segment(index, rung, bytes, 1);
}

void VideoSession::request_segment(int index, Rung rung, std::uint64_t bytes, int attempt) {
  const int epoch = epoch_;
  const sim::Time requested_at = engine_.now();
  active_transfer_ =
      link_.transfer(bytes, [this, epoch, index, rung, bytes, attempt, requested_at](bool ok) {
        if (!epoch_ok(epoch)) return;
        active_transfer_ = net::kInvalidTransfer;
        if (watchdog_event_ != sim::kInvalidEvent) {
          engine_.cancel(watchdog_event_);
          watchdog_event_ = sim::kInvalidEvent;
        }
        if (!alive() || finished_) return;
        if (!ok) {
          // Link-level transfer timeout.
          ++metrics_.download_timeouts;
          tracer_.instant(trace::InstantKind::DownloadTimeout, engine_.now(), pl_tid_, index);
          retry_segment(index, rung, bytes, attempt);
          return;
        }
        const sim::Time elapsed = std::max<sim::Time>(1, engine_.now() - requested_at);
        const double mbps = static_cast<double>(bytes) * 8.0 / sim::to_seconds(elapsed) / 1e6;
        throughput_estimate_mbps_ = throughput_estimate_mbps_ <= 0.0
                                        ? mbps
                                        : 0.7 * throughput_estimate_mbps_ + 0.3 * mbps;
        on_segment_arrived(index, rung, mem::pages_from_bytes(static_cast<std::int64_t>(bytes)));
      });

  if (config_.recovery.download_watchdog > 0) {
    // Flat event (engine hot path): at most one watchdog is pending per
    // session, so its context lives in a member instead of a closure.
    watchdog_ctx_ = WatchdogCtx{epoch, active_transfer_, index, rung, bytes, attempt};
    watchdog_event_ =
        engine_.schedule_flat(config_.recovery.download_watchdog, &VideoSession::on_watchdog, this);
  }
}

void VideoSession::on_watchdog(void* ctx, std::uint64_t) {
  auto* self = static_cast<VideoSession*>(ctx);
  const WatchdogCtx wd = self->watchdog_ctx_;
  if (!self->epoch_ok(wd.epoch) || self->active_transfer_ != wd.xfer) return;
  self->watchdog_event_ = sim::kInvalidEvent;
  self->link_.cancel(wd.xfer);
  self->active_transfer_ = net::kInvalidTransfer;
  ++self->metrics_.download_timeouts;
  self->tracer_.instant(trace::InstantKind::DownloadTimeout, self->engine_.now(), self->pl_tid_,
                        wd.index);
  if (!self->alive() || self->finished_) return;
  self->retry_segment(wd.index, wd.rung, wd.bytes, wd.attempt);
}

void VideoSession::retry_segment(int index, Rung rung, std::uint64_t bytes, int attempt) {
  if (attempt > config_.recovery.max_segment_retries) {
    // Retry budget exhausted: end the session with a structured failure
    // instead of spinning forever against a dead link.
    downloading_ = false;
    metrics_.aborted = true;
    metrics_.abort_reason =
        "segment " + std::to_string(index) + " failed after " + std::to_string(attempt) +
        " attempts";
    finish();
    return;
  }
  ++metrics_.segment_retries;
  tracer_.instant(trace::InstantKind::SegmentRetry, engine_.now(), pl_tid_, index);
  double backoff = static_cast<double>(config_.recovery.retry_backoff_initial);
  for (int i = 1; i < attempt; ++i) backoff *= config_.recovery.retry_backoff_factor;
  const sim::Time delay = std::min<sim::Time>(config_.recovery.retry_backoff_max,
                                              static_cast<sim::Time>(std::llround(backoff)));
  const int epoch = epoch_;
  engine_.schedule(delay, [this, epoch, index, rung, bytes, attempt] {
    if (!epoch_ok(epoch) || !alive() || finished_) return;
    request_segment(index, rung, bytes, attempt + 1);
  });
}

void VideoSession::on_segment_arrived(int index, Rung rung, mem::Pages pages) {
  const int epoch = epoch_;
  // The player thread may be mid-UI-burst; wait for it.
  if (scheduler_.exists(pl_tid_) && scheduler_.is_idle(pl_tid_)) {
    // Demux on the player thread, then commit the buffer memory.
    demuxing_ = Segment{index, rung, pages};
    scheduler_.run_work(pl_tid_, config_.profile.demux_cost_refus,
                        sim::flat_method<&VideoSession::demuxed>, this,
                        static_cast<std::uint64_t>(epoch));
  } else {
    engine_.schedule(sim::msec(1), [this, index, rung, pages, epoch] {
      if (epoch_ok(epoch)) on_segment_arrived(index, rung, pages);
    });
  }
}

void VideoSession::demuxed(std::uint64_t epoch_arg) {
  const int epoch = static_cast<int>(epoch_arg);
  const int index = demuxing_.index;
  const Rung rung = demuxing_.rung;
  const mem::Pages pages = demuxing_.pages;
  memory_.alloc_anon(pid_, pages, pl_tid_, [this, index, rung, pages, epoch](bool ok) {
    if (!ok || !epoch_ok(epoch) || !alive() || finished_) return;
    Segment segment;
    segment.index = index;
    segment.rung = rung;
    segment.pages = pages;
    segment.frames = rung.fps * config_.asset.segment_s;
    segment.start_pts = next_segment_pts_;
    next_segment_pts_ += sim::sec(config_.asset.segment_s);
    buffered_media_end_ = next_segment_pts_;
    buffer_.push_back(segment);
    metrics_.rung_history.push_back(rung);
    tracer_.instant(trace::InstantKind::SegmentDownloaded, engine_.now(), pl_tid_, index);
    downloading_ = false;
    if (!playback_started_) begin_playback();
    if (waiting_for_segment_) {
      waiting_for_segment_ = false;
      decode_next();
    }
    maybe_download();
  });
}

void VideoSession::ui_tick() {
  if (!alive() || finished_) return;
  if (!scheduler_.exists(pl_tid_) || !scheduler_.is_idle(pl_tid_)) return;
  const double cost =
      downloading_ && link_.busy() ? config_.ui_cost_refus * 0.3 : config_.ui_cost_refus;
  scheduler_.run_work(pl_tid_, cost, sim::flat_method<&VideoSession::ui_ran>, this,
                      static_cast<std::uint64_t>(epoch_));
}

void VideoSession::ui_ran(std::uint64_t epoch_arg) {
  const int epoch = static_cast<int>(epoch_arg);
  // Runtime allocation churn: grab this tick's share, release it after
  // its GC lifetime.
  const auto ticks_per_sec =
      std::max<sim::Time>(1, sim::sec(1) / std::max<sim::Time>(1, config_.ui_period));
  const mem::Pages churn = config_.churn_pages_per_sec / ticks_per_sec;
  if (churn <= 0 || !epoch_ok(epoch) || !alive() || finished_) return;
  memory_.alloc_anon(pid_, churn, pl_tid_, [this, churn, epoch](bool ok) {
    if (!ok) return;
    engine_.schedule(config_.churn_lifetime, [this, churn, epoch] {
      // Epoch guard: the kill already freed this incarnation's pages;
      // releasing them against a relaunched process would corrupt the
      // page accounting.
      if (epoch_ok(epoch) && memory_.registry().alive(pid_)) memory_.free_anon(pid_, churn);
    });
  });
}

// --- Decode pipeline ---------------------------------------------------------

void VideoSession::begin_playback() {
  playback_started_ = true;
  playback_base_ = engine_.now() + config_.startup_delay;
  pts_origin_ = buffer_.front().start_pts;
  if (metrics_.playback_start < 0) metrics_.playback_start = playback_base_;
  if (pending_kill_time_ >= 0) {
    metrics_.relaunch_downtime += playback_base_ - pending_kill_time_;
    pending_kill_time_ = -1;
  }
  decode_next();
}

void VideoSession::decode_next() {
  if (!alive() || finished_) return;
  if (buffer_.empty()) {
    if (downloads_done_) {
      maybe_finish_playout();
      return;
    }
    ++metrics_.rebuffer_events;
    waiting_for_segment_ = true;
    return;
  }
  Segment& segment = buffer_.front();
  if (frame_in_segment_ >= segment.frames) {
    memory_.free_anon(pid_, segment.pages);
    buffer_.pop_front();
    frame_in_segment_ = 0;
    decode_next();
    return;
  }

  const sim::Time pts = frame_pts(segment.start_pts, frame_in_segment_, segment.rung.fps);
  const sim::Time deadline = playback_base_ + (pts - pts_origin_);
  const sim::Time now = engine_.now();

  if (now > deadline + config_.present_slack) {
    // Frame is already unpresentable: skip-decode it cheaply and move on
    // (the decoder catching up — this is what a stutter looks like).
    note_dropped(pts);
    const double skip_cost =
        0.15 * config_.profile.decode_cost_refus(segment.rung, config_.asset.complexity);
    advance_frame();
    scheduler_.run_work(mc_tid_, skip_cost, sim::flat_method<&VideoSession::decode_next>, this);
    return;
  }
  if (now < deadline - config_.decode_lead) {
    scheduler_.sleep_for(mc_tid_, deadline - config_.decode_lead - now,
                         sim::flat_method<&VideoSession::decode_next>, this);
    return;
  }
  decoding_ = PresentItem{deadline, pts, segment.rung};

  // Per-frame working-set touch: decoding a frame walks the heap, codec
  // buffers and code pages; under pressure the evicted/compressed share
  // faults back in (decompression CPU + storage reads) *inside the frame
  // deadline* — the §2 "extra I/O wait in any thread" stretched across
  // every frame, which is what turns memory pressure into dropped frames
  // at any resolution.
  const mem::ProcessMem* process = memory_.registry().find(pid_);
  if (process != nullptr) {
    const auto window_anon = static_cast<mem::Pages>(
        config_.heap_touch_fraction *
        static_cast<double>(process->anon_resident + process->anon_swapped));
    const auto window_file = static_cast<mem::Pages>(
        config_.code_touch_fraction * static_cast<double>(process->file_working_set));
    // The touched window is the client's hot floor: kswapd cannot
    // usefully compress it (it would fault right back).
    memory_.set_hot_pages(pid_, window_anon);
    // Per-frame share of the touch window.
    const double scale =
        std::min(1.0, static_cast<double>(sim::sec(1) / segment.rung.fps) /
                          static_cast<double>(std::max<sim::Time>(1, config_.touch_period)));
    const auto anon_touch = static_cast<mem::Pages>(static_cast<double>(window_anon) * scale);
    const auto file_touch = static_cast<mem::Pages>(static_cast<double>(window_file) * scale);
    const int epoch = epoch_;
    memory_.touch_working_set(pid_, mc_tid_, anon_touch, file_touch, [this, epoch](bool ok) {
      if (!ok || !epoch_ok(epoch) || !alive() || finished_) return;
      decode_current_frame();
    });
    return;
  }
  decode_current_frame();
}

void VideoSession::ensure_decoder_pool(const Rung& rung, std::function<void()> next) {
  if (pool_pages_ > 0 && pool_rung_ == rung) {
    next();
    return;
  }
  const mem::Pages new_pool = config_.profile.decoder_pool_pages(rung);
  const int epoch = epoch_;
  // Allocate the new pool before releasing the old one — the transient
  // double allocation is exactly what a live rung switch costs.
  memory_.alloc_anon(pid_, new_pool, mc_tid_, [this, rung, new_pool, epoch,
                                               next = std::move(next)](bool ok) {
    if (!ok || !epoch_ok(epoch) || !alive() || finished_) return;
    if (pool_pages_ > 0) memory_.free_anon(pid_, pool_pages_);
    pool_pages_ = new_pool;
    pool_rung_ = rung;
    next();
  });
}

void VideoSession::decode_current_frame() {
  ensure_decoder_pool(decoding_.rung, [this] {
    const double cost =
        config_.profile.decode_cost_refus(decoding_.rung, config_.asset.complexity) *
        unit_lognormal(rng_, config_.decode_sigma);
    scheduler_.run_work(mc_tid_, cost, sim::flat_method<&VideoSession::decoded>, this);
  });
}

void VideoSession::decoded() {
  if (!alive() || finished_) return;
  if (engine_.now() > decoding_.deadline + config_.present_slack) {
    note_dropped(decoding_.pts);
  } else {
    enqueue_compose(decoding_.deadline, decoding_.pts, decoding_.rung);
  }
  advance_frame();
  decode_next();
}

void VideoSession::advance_frame() { ++frame_in_segment_; }

// --- In-process compositor ----------------------------------------------------

void VideoSession::enqueue_compose(sim::Time deadline, sim::Time pts, const Rung& rung) {
  compose_queue_.push_back(PresentItem{deadline, pts, rung});
  comp_pump();
}

void VideoSession::comp_pump() {
  if (comp_busy_ || compose_queue_.empty()) return;
  if (!scheduler_.exists(comp_tid_)) return;
  comp_busy_ = true;
  composing_ = compose_queue_.front();
  compose_queue_.pop_front();
  const double cost = config_.profile.compositor_cost_refus(composing_.rung);
  scheduler_.run_work(comp_tid_, cost, sim::flat_method<&VideoSession::composed>, this);
}

void VideoSession::composed() {
  if (engine_.now() > composing_.deadline + config_.present_slack) {
    note_dropped(composing_.pts);
  } else {
    enqueue_present(composing_.deadline, composing_.pts, composing_.rung);
  }
  comp_busy_ = false;
  comp_pump();
  maybe_finish_playout();
}

// --- Presentation ------------------------------------------------------------

void VideoSession::enqueue_present(sim::Time deadline, sim::Time pts, const Rung& rung) {
  present_queue_.push_back(PresentItem{deadline, pts, rung});
  sf_pump();
}

void VideoSession::sf_pump() {
  if (sf_busy_ || present_queue_.empty()) return;
  if (!scheduler_.exists(sf_tid_)) return;
  sf_busy_ = true;
  presenting_ = present_queue_.front();
  present_queue_.pop_front();
  const double cost = config_.profile.compose_cost_refus(presenting_.rung);
  scheduler_.run_work(sf_tid_, cost, sim::flat_method<&VideoSession::presented>, this,
                      static_cast<std::uint64_t>(epoch_));
}

void VideoSession::presented(std::uint64_t epoch_arg) {
  // SurfaceFlinger lives in the system process and survives a client
  // kill, so this can run for a dead incarnation: the frame was already
  // accounted as lost at kill time — just release the stage.
  const bool current = epoch_ok(static_cast<int>(epoch_arg));
  if (current) {
    if (engine_.now() <= presenting_.deadline + config_.present_slack) {
      note_presented(presenting_.pts);
    } else {
      note_dropped(presenting_.pts);
    }
  }
  sf_busy_ = false;
  sf_pump();
  if (current) maybe_finish_playout();
}

// --- Accounting ---------------------------------------------------------------

std::size_t VideoSession::media_second(sim::Time pts) const noexcept {
  return static_cast<std::size_t>(std::max<sim::Time>(0, pts) / sim::sec(1));
}

void VideoSession::note_presented(sim::Time pts) {
  ++metrics_.frames_presented;
  const std::size_t second = media_second(pts);
  if (metrics_.presented_per_second.size() <= second) {
    metrics_.presented_per_second.resize(second + 1, 0);
  }
  ++metrics_.presented_per_second[second];
  tracer_.instant(trace::InstantKind::FramePresented, engine_.now(), mc_tid_,
                  static_cast<std::int64_t>(second));
}

void VideoSession::note_dropped(sim::Time pts) {
  ++metrics_.frames_dropped;
  const std::size_t second = media_second(pts);
  if (metrics_.dropped_per_second.size() <= second) {
    metrics_.dropped_per_second.resize(second + 1, 0);
  }
  ++metrics_.dropped_per_second[second];
  tracer_.instant(trace::InstantKind::FrameDropped, engine_.now(), mc_tid_,
                  static_cast<std::int64_t>(second));
}

void VideoSession::sample_pss() {
  const mem::ProcessMem* process = memory_.registry().find(pid_);
  if (process == nullptr) return;
  const double pss_mb = mem::mb_from_pages(mem::pss_pages(*process));
  metrics_.pss_mb.add(pss_mb);
  tracer_.counter("pss_mb", engine_.now(), pss_mb);
}

void VideoSession::account_kill_losses() {
  // Frames in flight past the decoder (compose/present queues and the
  // stage slots) die with the display pipeline; the played segment's
  // undecoded remainder dies with the buffer. Segments buffered beyond
  // the playhead were freed by the kill but never entered playback — the
  // relaunch re-downloads them, so their frames are not lost.
  std::int64_t lost = static_cast<std::int64_t>(compose_queue_.size() + present_queue_.size());
  if (comp_busy_) ++lost;
  if (sf_busy_) ++lost;
  int resume = downloading_ ? next_segment_ - 1 : next_segment_;
  if (!buffer_.empty()) {
    const Segment& front = buffer_.front();
    if (frame_in_segment_ > 0) {
      lost += front.frames - frame_in_segment_;
      resume = front.index + 1;
    } else {
      resume = front.index;
    }
  }
  metrics_.frames_lost_to_kill += lost;
  resume_segment_ = resume;
}

void VideoSession::handle_crash() {
  if (finished_ || crashed_) return;
  const sim::Time now = engine_.now();
  metrics_.kill_times.push_back(now);
  tracer_.instant(trace::InstantKind::ClientCrashed, now, pl_tid_, 0);

  // Invalidate every outstanding callback of this incarnation, stop the
  // periodic work, and cancel the in-flight download.
  ++epoch_;
  crashed_ = true;
  if (active_transfer_ != net::kInvalidTransfer) {
    link_.cancel(active_transfer_);
    active_transfer_ = net::kInvalidTransfer;
  }
  if (watchdog_event_ != sim::kInvalidEvent) {
    engine_.cancel(watchdog_event_);
    watchdog_event_ = sim::kInvalidEvent;
  }
  if (pss_sampler_ != nullptr) pss_sampler_->stop();
  if (ui_task_ != nullptr) ui_task_->stop();

  account_kill_losses();

  // The kill already freed the process's pages (playback buffer and
  // decoder pool included): forget them without a second free.
  buffer_.clear();
  compose_queue_.clear();
  present_queue_.clear();
  comp_busy_ = false;  // compositor thread died with the process
  // sf_busy_ is left alone: SurfaceFlinger survives, and its in-flight
  // callback (epoch-guarded) releases the stage itself.
  pool_pages_ = 0;
  frame_in_segment_ = 0;
  downloading_ = false;
  downloads_done_ = false;
  waiting_for_segment_ = false;

  const bool relaunch_allowed = config_.recovery.relaunch_on_kill &&
                                metrics_.relaunches < config_.recovery.max_relaunches &&
                                resume_segment_ < total_segments_;
  if (!relaunch_allowed) {
    // Terminal crash: no relaunch will ever re-download the remainder,
    // so every segment at or past the resume point is forfeited with
    // the process. Charging it here keeps the frame identity
    // (presented + dropped + lost == asset frames) exact for
    // kill-terminated fixed-ladder runs, not just recovered ones.
    // Drop statistics still cover the *played* portion only; the crash
    // itself is reported separately (the paper's Fig 9 drop bars and
    // Table 2 crash rates are separate panels over the same runs).
    if (resume_segment_ < total_segments_) {
      metrics_.frames_lost_to_kill +=
          static_cast<std::int64_t>(total_segments_ - resume_segment_) *
          config_.initial_rung.fps * config_.asset.segment_s;
    }
    metrics_.crashed = true;
    metrics_.crash_time = now;
    finish();
    return;
  }

  // Absorbed kill: cold restart after the relaunch delay. Counted as a
  // rebuffer + relaunch rather than a terminal crash.
  ++metrics_.rebuffer_events;
  pending_kill_time_ = now;
  const int epoch = epoch_;
  engine_.schedule(config_.recovery.relaunch_delay, [this, epoch] {
    if (!epoch_ok(epoch) || finished_) return;
    relaunch();
  });
}

void VideoSession::relaunch() {
  ++metrics_.relaunches;
  if (config_.next_pid) pid_ = config_.next_pid();
  crashed_ = false;

  memory_.register_process(pid_, config_.profile.process_name, mem::OomAdj::kForeground,
                           [this] { handle_crash(); });
  spawn_client_threads();  // fresh pl/mc/comp; SurfaceFlinger is still up

  // Resume playback at the next clean segment boundary; everything the
  // dead incarnation had buffered past it is re-downloaded.
  next_segment_ = resume_segment_;
  next_segment_pts_ = sim::sec(config_.asset.segment_s) * resume_segment_;
  buffered_media_end_ = next_segment_pts_;
  pts_origin_ = next_segment_pts_;
  playback_started_ = false;

  tracer_.instant(trace::InstantKind::SessionRelaunch, engine_.now(), pl_tid_,
                  metrics_.relaunches);
  launch_stage(0);
}

bool VideoSession::pipeline_idle() const noexcept {
  return compose_queue_.empty() && present_queue_.empty() && !comp_busy_ && !sf_busy_;
}

void VideoSession::maybe_finish_playout() {
  if (finished_ || !downloads_done_ || !buffer_.empty() || !pipeline_idle()) return;
  finish();
}

void VideoSession::finish() {
  if (finished_) return;
  finished_ = true;
  metrics_.finished_at = engine_.now();
  if (memory_.registry().alive(pid_)) {
    for (const Segment& segment : buffer_) memory_.free_anon(pid_, segment.pages);
  }
  buffer_.clear();
  if (pss_sampler_ != nullptr) pss_sampler_->stop();
  if (ui_task_ != nullptr) ui_task_->stop();
  if (on_finished_) {
    engine_.schedule(0, [fn = std::move(on_finished_)] { fn(); });
    on_finished_ = nullptr;
  }
}

void VideoSession::save(snapshot::ByteWriter& w) const {
  w.u32(1);  // section version
  w.u32(pid_);
  w.u64(pl_tid_);
  w.u64(mc_tid_);
  w.u64(comp_tid_);
  w.u64(sf_tid_);
  snapshot::write_rng(w, rng_);

  // Download pipeline + playback buffer.
  w.i32(total_segments_);
  w.i32(next_segment_);
  w.b(downloading_);
  w.b(downloads_done_);
  w.u64(buffer_.size());
  for (const Segment& segment : buffer_) {
    w.i32(segment.index);
    write_rung(w, segment.rung);
    w.i64(segment.pages);
    w.i32(segment.frames);
    w.i64(segment.start_pts);
  }
  w.i64(buffered_media_end_);
  w.i64(next_segment_pts_);
  w.u64(active_transfer_);

  // Incarnation / playback clock.
  w.i32(epoch_);
  w.i64(playback_base_);
  w.i64(pts_origin_);
  w.i32(resume_segment_);
  w.i64(pending_kill_time_);

  // Decode cursor + pools.
  w.b(playback_started_);
  w.b(waiting_for_segment_);
  w.i32(frame_in_segment_);
  write_rung(w, current_rung_);
  write_rung(w, pool_rung_);
  w.i64(pool_pages_);
  w.i64(0);  // the retired last_touch_, which nothing ever set
  w.f64(throughput_estimate_mbps_);

  // Compose/present stages.
  w.u64(compose_queue_.size());
  for (const PresentItem& item : compose_queue_) {
    w.i64(item.deadline);
    w.i64(item.pts);
    write_rung(w, item.rung);
  }
  w.b(comp_busy_);
  w.u64(present_queue_.size());
  for (const PresentItem& item : present_queue_) {
    w.i64(item.deadline);
    w.i64(item.pts);
    write_rung(w, item.rung);
  }
  w.b(sf_busy_);

  w.b(started_);
  w.b(finished_);
  w.b(crashed_);

  // Metrics.
  w.i64(metrics_.frames_presented);
  w.i64(metrics_.frames_dropped);
  w.i64(metrics_.frames_lost_to_kill);
  w.b(metrics_.crashed);
  w.i64(metrics_.crash_time);
  w.b(metrics_.aborted);
  w.str(metrics_.abort_reason);
  w.i64(metrics_.playback_start);
  w.i64(metrics_.finished_at);
  w.i32(metrics_.relaunches);
  w.i32(metrics_.rebuffer_events);
  w.i32(metrics_.segment_retries);
  w.i32(metrics_.download_timeouts);
  w.u64(metrics_.kill_times.size());
  for (const sim::Time t : metrics_.kill_times) w.i64(t);
  w.i64(metrics_.relaunch_downtime);
  w.u64(metrics_.presented_per_second.size());
  for (const int n : metrics_.presented_per_second) w.i32(n);
  w.u64(metrics_.dropped_per_second.size());
  for (const int n : metrics_.dropped_per_second) w.i32(n);
  w.u64(metrics_.rung_history.size());
  for (const Rung& rung : metrics_.rung_history) write_rung(w, rung);
  write_accumulator(w, metrics_.pss_mb);
}

std::uint64_t VideoSession::digest() const { return snapshot::state_digest(*this); }

}  // namespace mvqoe::video
