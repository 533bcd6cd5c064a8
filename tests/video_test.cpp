#include <gtest/gtest.h>

#include "proc/activity_manager.hpp"
#include "trace/analysis.hpp"
#include "video/session.hpp"

namespace mvqoe::video {
namespace {

using mem::pages_from_mb;
using sim::sec;

// -------- Ladder -------------------------------------------------------------

TEST(Ladder, YoutubeCoversResolutionFpsGrid) {
  const auto ladder = BitrateLadder::youtube();
  EXPECT_EQ(ladder.rungs().size(), 6u * 4u);
  EXPECT_EQ(ladder.heights(), (std::vector<int>{240, 360, 480, 720, 1080, 1440}));
  EXPECT_EQ(ladder.frame_rates(), (std::vector<int>{24, 30, 48, 60}));
}

TEST(Ladder, RecommendedBitratesMatchYoutubeAnchors) {
  const auto ladder = BitrateLadder::youtube();
  EXPECT_EQ(ladder.find(1080, 30)->bitrate_kbps, 8000);
  EXPECT_EQ(ladder.find(1080, 60)->bitrate_kbps, 12000);  // 1.5x HFR premium
  EXPECT_EQ(ladder.find(720, 30)->bitrate_kbps, 5000);
  EXPECT_EQ(ladder.find(480, 30)->bitrate_kbps, 2500);
}

TEST(Ladder, SixtyFpsAlwaysCostsMoreThanThirty) {
  const auto ladder = BitrateLadder::youtube();
  for (const int height : ladder.heights()) {
    EXPECT_GT(ladder.find(height, 60)->bitrate_kbps, ladder.find(height, 30)->bitrate_kbps);
  }
}

TEST(Ladder, StepDownFindsNextLowerSameFps) {
  const auto ladder = BitrateLadder::youtube();
  const auto down = ladder.step_down(*ladder.find(1080, 30));
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(down->resolution.height, 720);
  EXPECT_EQ(down->fps, 30);
  EXPECT_FALSE(ladder.step_down(*ladder.find(240, 30)).has_value());
}

TEST(Ladder, StepUpFindsNextHigherSameFps) {
  const auto ladder = BitrateLadder::youtube();
  const auto up = ladder.step_up(*ladder.find(480, 60));
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->resolution.height, 720);
  EXPECT_FALSE(ladder.step_up(*ladder.find(1440, 60)).has_value());
}

TEST(Ladder, WithFpsKeepsResolution) {
  const auto ladder = BitrateLadder::youtube();
  const auto rung = ladder.with_fps(*ladder.find(1080, 60), 24);
  ASSERT_TRUE(rung.has_value());
  EXPECT_EQ(rung->resolution.height, 1080);
  EXPECT_EQ(rung->fps, 24);
  EXPECT_LT(rung->bitrate_kbps, ladder.find(1080, 60)->bitrate_kbps);
}

TEST(Ladder, BestUnderRespectsCaps) {
  const auto ladder = BitrateLadder::youtube();
  const auto best = ladder.best_under(720, 30);
  ASSERT_TRUE(best.has_value());
  EXPECT_LE(best->resolution.height, 720);
  EXPECT_LE(best->fps, 30);
  EXPECT_EQ(best->resolution.height, 720);
}

// -------- Assets / profiles ---------------------------------------------------

TEST(Asset, GenreSuiteHasFiveDistinctGenres) {
  const auto suite = genre_suite();
  ASSERT_EQ(suite.size(), 5u);
  for (std::size_t i = 1; i < suite.size(); ++i) {
    EXPECT_NE(suite[i].genre, suite[0].genre);
  }
}

TEST(Asset, NewsIsCheapestToDecode) {
  const auto suite = genre_suite();
  double news = 0.0;
  for (const auto& asset : suite) {
    if (asset.genre == Genre::News) news = asset.complexity;
  }
  for (const auto& asset : suite) {
    if (asset.genre != Genre::News) EXPECT_GT(asset.complexity, news);
  }
}

TEST(PlayerProfile, FootprintOrderingMatchesAppendixB) {
  const auto firefox = PlayerProfile::firefox();
  const auto chrome = PlayerProfile::chrome();
  const auto exo = PlayerProfile::exoplayer();
  EXPECT_GT(firefox.base_heap, chrome.base_heap);
  EXPECT_GT(chrome.base_heap, exo.base_heap);
  const Rung rung{res::k1080p, 60, 12000};
  EXPECT_GT(firefox.decoder_pool_pages(rung), exo.decoder_pool_pages(rung));
}

TEST(PlayerProfile, PoolGrowsWithResolutionAndFps) {
  const auto profile = PlayerProfile::firefox();
  const Rung r240_30{res::k240p, 30, 500};
  const Rung r1080_30{res::k1080p, 30, 8000};
  const Rung r1080_60{res::k1080p, 60, 12000};
  EXPECT_GT(profile.decoder_pool_pages(r1080_30), profile.decoder_pool_pages(r240_30));
  EXPECT_GT(profile.decoder_pool_pages(r1080_60), profile.decoder_pool_pages(r1080_30));
}

TEST(PlayerProfile, DecodeCostScalesWithPixelsAndComplexity) {
  const auto profile = PlayerProfile::firefox();
  const Rung r480{res::k480p, 30, 2500};
  const Rung r1080{res::k1080p, 30, 8000};
  // Pixel-proportional on top of a fixed per-frame floor: the 1080p frame
  // (5x the pixels) costs well over 3x the 480p frame but less than 5x.
  EXPECT_GT(profile.decode_cost_refus(r1080, 1.0), 3.0 * profile.decode_cost_refus(r480, 1.0));
  EXPECT_LT(profile.decode_cost_refus(r1080, 1.0), 5.0 * profile.decode_cost_refus(r480, 1.0));
  EXPECT_GT(profile.decode_cost_refus(r480, 1.2), profile.decode_cost_refus(r480, 1.0));
}

// -------- Session (end-to-end on a mid-range device model) --------------------

struct DeviceFixture {
  sim::Engine engine;
  trace::Tracer tracer;
  sched::Scheduler scheduler;
  storage::StorageDevice storage;
  mem::MemoryManager memory;
  net::Link link;
  proc::ActivityManager am;

  explicit DeviceFixture(std::int64_t ram_mb = 2048, double freq = 2.3, std::size_t cores = 4)
      : scheduler(engine, tracer, sched_config(cores, freq)),
        storage(engine, scheduler, storage::StorageConfig{}),
        memory(engine, mem_config(ram_mb), scheduler, storage, tracer),
        link(engine, net::LinkConfig{}),
        am(memory) {}

  static sched::SchedulerConfig sched_config(std::size_t cores, double freq) {
    sched::SchedulerConfig config;
    config.cores = std::vector<sched::CoreConfig>(cores, sched::CoreConfig{freq});
    return config;
  }
  static mem::MemoryConfig mem_config(std::int64_t ram_mb) {
    mem::MemoryConfig config;
    config.total = pages_from_mb(ram_mb);
    config.kernel_reserved = pages_from_mb(ram_mb / 5);
    config.zram_capacity = pages_from_mb(ram_mb / 2);
    config.watermark_min = pages_from_mb(8);
    config.watermark_low = pages_from_mb(24 + ram_mb / 64);
    config.watermark_high = pages_from_mb(40 + ram_mb / 48);
    return config;
  }
};

SessionConfig session_config(int height, int fps, int duration_s = 20) {
  SessionConfig config;
  config.asset = dubai_flow_motion(duration_s);
  config.ladder = BitrateLadder::youtube();
  config.initial_rung = *config.ladder.find(height, fps);
  config.seed = 7;
  return config;
}

TEST(VideoSession, PlaysCleanlyAtLowResolutionWithoutPressure) {
  DeviceFixture fx;
  fx.am.boot(1.0, 8);
  VideoSession session(fx.engine, fx.scheduler, fx.memory, fx.link, fx.tracer,
                       session_config(480, 30));
  bool finished = false;
  session.start(fx.am.next_pid(), [&] { finished = true; });
  fx.engine.run_until(sec(40));

  EXPECT_TRUE(finished);
  EXPECT_FALSE(session.metrics().crashed);
  // 20 s at 30 FPS = 600 frames, nearly all presented.
  EXPECT_GT(session.metrics().frames_presented, 550);
  EXPECT_LT(session.metrics().drop_rate(), 0.03);
}

TEST(VideoSession, FrameAccountingCoversWholeVideo) {
  DeviceFixture fx;
  fx.am.boot(1.0, 8);
  VideoSession session(fx.engine, fx.scheduler, fx.memory, fx.link, fx.tracer,
                       session_config(360, 30));
  session.start(fx.am.next_pid());
  fx.engine.run_until(sec(40));
  const auto& metrics = session.metrics();
  EXPECT_EQ(metrics.frames_presented + metrics.frames_dropped, 20 * 30);
}

TEST(VideoSession, PssGrowsWithResolution) {
  auto run_pss = [](int height, int fps) {
    DeviceFixture fx;
    fx.am.boot(1.0, 8);
    VideoSession session(fx.engine, fx.scheduler, fx.memory, fx.link, fx.tracer,
                         session_config(height, fps));
    session.start(fx.am.next_pid());
    fx.engine.run_until(sec(40));
    return session.metrics().pss_mb.max();
  };
  const double pss_240 = run_pss(240, 30);
  const double pss_1080 = run_pss(1080, 30);
  const double pss_1080_60 = run_pss(1080, 60);
  EXPECT_GT(pss_1080, pss_240 + 50.0);
  EXPECT_GT(pss_1080_60, pss_1080);
}

TEST(VideoSession, SlowDeviceDropsFramesAtHighResolution) {
  // Entry-level device (1 GB, 4x1.1 GHz) at 1080p60: decode alone cannot
  // hold the deadline schedule.
  DeviceFixture fx(1024, 1.1, 4);
  fx.am.boot(0.7, 8);
  VideoSession session(fx.engine, fx.scheduler, fx.memory, fx.link, fx.tracer,
                       session_config(1080, 60));
  session.start(fx.am.next_pid());
  fx.engine.run_until(sec(60));
  EXPECT_GT(session.metrics().drop_rate(), 0.3);
}

TEST(VideoSession, RungHistoryRecordsSwitches) {
  DeviceFixture fx;
  fx.am.boot(1.0, 8);
  SessionConfig config = session_config(720, 60);
  std::vector<ScheduledAbr::Step> steps;
  steps.push_back({0, *config.ladder.find(720, 60)});
  steps.push_back({2, *config.ladder.find(480, 24)});
  ScheduledAbr abr(steps);
  VideoSession session(fx.engine, fx.scheduler, fx.memory, fx.link, fx.tracer, config, &abr);
  session.start(fx.am.next_pid());
  fx.engine.run_until(sec(40));
  const auto& history = session.metrics().rung_history;
  ASSERT_GE(history.size(), 3u);
  EXPECT_EQ(history[0].fps, 60);
  EXPECT_EQ(history[2].fps, 24);
  EXPECT_EQ(history[2].resolution.height, 480);
}

TEST(VideoSession, CrashUnderExtremePressureCountsRemainderDropped) {
  DeviceFixture fx(1024, 1.1, 4);
  fx.am.boot(0.7, 6);
  // Unkillable hog grabs almost everything; the video client becomes the
  // only foreground-eligible victim.
  fx.memory.register_process(500, "mp_simulator", mem::OomAdj::kForeground);
  fx.memory.registry().set_killable(500, false);
  fx.memory.alloc_anon(500, pages_from_mb(900), 0, [](bool) {});

  VideoSession session(fx.engine, fx.scheduler, fx.memory, fx.link, fx.tracer,
                       session_config(720, 60, 30));
  bool finished = false;
  session.start(fx.am.next_pid(), [&] { finished = true; });
  fx.engine.run_until(sec(90));
  EXPECT_TRUE(finished);
  EXPECT_TRUE(session.metrics().crashed);
  // Played frames are few: the session died early under extreme pressure.
  EXPECT_LT(session.metrics().frames_presented, 30 * 60);
}

TEST(VideoSession, ClientThreadsAreTraced) {
  DeviceFixture fx;
  fx.am.boot(1.0, 8);
  VideoSession session(fx.engine, fx.scheduler, fx.memory, fx.link, fx.tracer,
                       session_config(480, 30));
  session.start(fx.am.next_pid());
  fx.engine.run_until(sec(40));
  fx.tracer.finalize(fx.engine.now());

  const auto times = trace::state_times(fx.tracer, session.client_thread_ids());
  EXPECT_GT(times.running, 0.0);
  const auto* mc = fx.tracer.thread(session.mediacodec_tid());
  ASSERT_NE(mc, nullptr);
  EXPECT_EQ(mc->name, "MediaCodec");
  const auto* sf = fx.tracer.thread(session.surfaceflinger_tid());
  ASSERT_NE(sf, nullptr);
  EXPECT_EQ(sf->process_name, "surfaceflinger");
}

TEST(VideoSession, CompositorThreadParticipatesInPipeline) {
  DeviceFixture fx;
  fx.am.boot(1.0, 8);
  VideoSession session(fx.engine, fx.scheduler, fx.memory, fx.link, fx.tracer,
                       session_config(720, 60));
  session.start(fx.am.next_pid());
  fx.engine.run_until(sec(40));
  fx.tracer.finalize(fx.engine.now());
  const auto* meta = fx.tracer.thread(session.compositor_tid());
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->name, "Compositor");
  const auto times = trace::state_times(fx.tracer, {session.compositor_tid()});
  EXPECT_GT(times.running, 0.0);  // it composed every presented frame
}

TEST(VideoSession, ClientThreadListHasThreeAppThreads) {
  DeviceFixture fx;
  fx.am.boot(1.0, 8);
  VideoSession session(fx.engine, fx.scheduler, fx.memory, fx.link, fx.tracer,
                       session_config(240, 30));
  session.start(fx.am.next_pid());
  const auto tids = session.client_thread_ids();
  EXPECT_EQ(tids.size(), 3u);  // player main, MediaCodec, Compositor
}

// A kill that lands while the decoder, the compositor and SurfaceFlinger
// each have a burst in flight. The client's two bursts die with its
// threads. SurfaceFlinger outlives the client, so its burst completes for
// the dead incarnation, whose frame the kill already counted as lost. The
// relaunched client plays the rest, and every frame is counted once.
TEST(VideoSession, KillWithEveryStageInFlightCountsEachFrameOnce) {
  DeviceFixture fx;
  fx.am.boot(1.0, 8);
  SessionConfig config = session_config(1080, 60, 12);
  config.recovery.relaunch_on_kill = true;
  config.next_pid = [&fx] { return fx.am.next_pid(); };
  VideoSession session(fx.engine, fx.scheduler, fx.memory, fx.link, fx.tracer, config);
  bool finished = false;
  session.start(fx.am.next_pid(), [&] { finished = true; });
  while (session.metrics().playback_start < 0 ||
         fx.engine.now() < session.metrics().playback_start) {
    ASSERT_TRUE(fx.engine.step());
  }

  // Hold SurfaceFlinger off the CPU for a while (pinned to a core an RT
  // burst occupies), so decoded and composed frames queue behind it.
  const trace::ThreadId sf = session.surfaceflinger_tid();
  fx.scheduler.set_affinity(sf, 0b1);
  sched::ThreadSpec hog;
  hog.name = "hog";
  hog.pid = 1;
  hog.sched_class = sched::SchedClass::Realtime;
  hog.priority = 90;
  hog.affinity = 0b1;
  fx.scheduler.run_work(fx.scheduler.create_thread(hog), 300'000.0);
  const auto busy = [&](trace::ThreadId tid) {
    return fx.scheduler.exists(tid) && !fx.scheduler.is_idle(tid);
  };
  while (!(busy(session.mediacodec_tid()) && busy(session.compositor_tid()) && busy(sf))) {
    ASSERT_LT(fx.engine.now(), sec(10)) << "no instant with all three stages busy";
    ASSERT_TRUE(fx.engine.step());
  }
  const std::vector<trace::ThreadId> client = session.client_thread_ids();
  fx.memory.kill_process(session.pid());
  while (session.metrics().kill_times.empty()) ASSERT_TRUE(fx.engine.step());
  for (const trace::ThreadId tid : client) EXPECT_FALSE(fx.scheduler.exists(tid));
  ASSERT_TRUE(busy(sf));

  // SurfaceFlinger finishes the dead incarnation's frame once the RT
  // burst (130 ms) lets it run, long before the relaunch delay is over;
  // the frame is neither presented nor dropped.
  const SessionMetrics at_kill = session.metrics();
  fx.engine.run_until(fx.engine.now() + sim::msec(300));
  EXPECT_TRUE(fx.scheduler.is_idle(sf));
  EXPECT_EQ(session.metrics().frames_presented, at_kill.frames_presented);
  EXPECT_EQ(session.metrics().frames_dropped, at_kill.frames_dropped);

  fx.engine.run_until(sec(60));
  const SessionMetrics& metrics = session.metrics();
  EXPECT_TRUE(finished);
  EXPECT_FALSE(metrics.crashed);
  EXPECT_EQ(metrics.relaunches, 1);
  EXPECT_GT(metrics.frames_presented, at_kill.frames_presented);
  EXPECT_EQ(metrics.frames_lost_to_kill, at_kill.frames_lost_to_kill);
  EXPECT_EQ(metrics.frames_presented + metrics.frames_dropped + metrics.frames_lost_to_kill,
            session.fixed_ladder_frame_total());
}

TEST(VideoSession, DeterministicForSameSeed) {
  auto run_once = [] {
    DeviceFixture fx(1024, 1.1, 4);
    fx.am.boot(0.7, 8);
    VideoSession session(fx.engine, fx.scheduler, fx.memory, fx.link, fx.tracer,
                         session_config(1080, 30));
    session.start(fx.am.next_pid());
    fx.engine.run_until(sec(60));
    return session.metrics().frames_dropped;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace mvqoe::video
