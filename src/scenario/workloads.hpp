// The workload interface and its first-party implementations (DESIGN.md
// §11): the video session, the organic background-app cohort, the
// synthetic pressure inducer and cross traffic — composable in any
// number per scenario.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pressure_inducer.hpp"
#include "core/run_spec.hpp"
#include "core/testbed.hpp"
#include "scenario/spec.hpp"
#include "stats/rng.hpp"

namespace mvqoe::scenario {

/// One independently specified actor on the simulated device. The
/// ScenarioDriver owns an ordered vector of them and phases them all
/// through four hooks:
///
///   attach()    world phase, after boot. Pressure workloads block here
///               until their regime is established (the §4.1 "start the
///               video after the pressure signal" rule). Between it and
///               start(), ScenarioDriver::set_cell may retarget the video
///               cell.
///   start()     arm faults, build sessions, begin playback. Must not
///               advance the engine: every workload starts at one
///               instant.
///   done()      true when the workload has nothing left to do. Blocking
///               workloads (video sessions) gate the run; ambient ones
///               (background duty) report true always.
///   finalize()  disarm faults, settle accounting. No engine time.
///
/// A workload whose state enters snapshots adds its save()/digest() hooks
/// to the testbed's component registry in attach() or start().
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string label() const = 0;

  virtual void attach(core::Testbed& testbed) { (void)testbed; }
  virtual void start(core::Testbed& testbed) { (void)testbed; }
  virtual bool done() const = 0;
  virtual void finalize(core::Testbed& testbed) { (void)testbed; }

  /// Worst pressure level this workload observed while establishing its
  /// regime during attach(); the scenario's start_level is the max over
  /// workloads.
  virtual mem::PressureLevel observed_level() const { return mem::PressureLevel::Normal; }
};

/// One video playback session. Blob sections VIDE/FALT for session 0 —
/// byte-compatible with the legacy experiment — and VIDn/FLTn for later
/// sessions (n = 1..9).
class VideoSessionWorkload final : public Workload {
 public:
  /// `index` is the session's position among the scenario's video
  /// workloads (drives snapshot tags and registry ordering keys);
  /// `platform` is pre-resolved via platform_for().
  VideoSessionWorkload(VideoWorkloadSpec spec, video::PlayerPlatform platform, std::size_t index);
  ~VideoSessionWorkload() override;

  std::string label() const override { return spec_.label; }
  void start(core::Testbed& testbed) override;
  bool done() const override { return finished_; }
  void finalize(core::Testbed& testbed) override;

  /// Retarget the video cell before start() (ScenarioDriver::set_cell).
  void set_cell(int height, int fps, std::uint64_t video_seed);

  /// Assemble the per-session result; valid after finalize().
  core::VideoRunResult result() const;

  video::VideoSession* session() noexcept { return session_.get(); }
  const video::VideoSession* session() const noexcept { return session_.get(); }
  fault::FaultInjector* injector() noexcept { return injector_.get(); }
  const VideoWorkloadSpec& spec() const noexcept { return spec_; }
  const video::SessionConfig& config() const noexcept { return config_; }

 private:
  VideoWorkloadSpec spec_;
  video::PlayerPlatform platform_;
  std::size_t index_;
  video::SessionConfig config_;
  std::unique_ptr<video::VideoSession> session_;
  std::unique_ptr<fault::FaultInjector> injector_;
  bool finished_ = false;
  sim::Time video_start_ = -1;
};

/// Organic background-app churn (paper §4.3): launch `count` top-free
/// apps before the players start; half keep working (and respawning
/// after lmkd kills) for the whole run. Owns no snapshot sections — its
/// state lives in the memory manager / activity manager / system
/// activity sections.
class BackgroundDutyWorkload final : public Workload {
 public:
  BackgroundDutyWorkload(std::string label, int count);

  std::string label() const override { return label_; }
  void attach(core::Testbed& testbed) override;
  bool done() const override { return true; }
  mem::PressureLevel observed_level() const override { return observed_; }

 private:
  std::string label_;
  int count_;
  mem::PressureLevel observed_ = mem::PressureLevel::Normal;
  // Owns the service-restart chain; callbacks hold weak refs so the
  // chain dies with the workload instead of leaking through a
  // shared_ptr cycle.
  std::shared_ptr<std::function<void(proc::AppSpec, bool)>> relaunch_;
};

/// MP-Simulator-style synthetic pressure (paper §4.1): allocate until
/// the target pressure signal arrives, then maintain it. Blob section
/// INDC for inducer 0 (legacy-compatible), INDn for later ones.
class PressureInducerWorkload final : public Workload {
 public:
  PressureInducerWorkload(std::string label, mem::PressureLevel target, std::size_t index);
  ~PressureInducerWorkload() override;

  std::string label() const override { return label_; }
  void attach(core::Testbed& testbed) override;
  bool done() const override { return true; }
  mem::PressureLevel observed_level() const override { return observed_; }

 private:
  std::string label_;
  mem::PressureLevel target_;
  std::size_t index_;
  std::unique_ptr<core::PressureInducer> inducer_;
  mem::PressureLevel observed_ = mem::PressureLevel::Normal;
};

/// Competing traffic through the shared bottleneck (ROADMAP item 3):
/// bulk flows chain chunk downloads back-to-back for the whole run;
/// on/off flows alternate transfer bursts with silence, with seeded
/// phase jitter so flows don't toggle in lockstep. Meant for
/// congestion-controlled links (NetSpec cc != fifo), where the flows
/// genuinely compete with the video session's segment fetches; on a
/// fifo link they simply queue ahead of it. Blob section XTRC for
/// workload 0, XTRn for later ones (registry key 130+i).
class CrossTrafficWorkload final : public Workload {
 public:
  CrossTrafficWorkload(CrossTrafficWorkloadSpec spec, std::size_t index);
  ~CrossTrafficWorkload() override;

  std::string label() const override { return spec_.label; }
  void start(core::Testbed& testbed) override;
  bool done() const override { return true; }
  void finalize(core::Testbed& testbed) override;

  void save(snapshot::ByteWriter& w) const;
  std::uint64_t digest() const;

 private:
  struct FlowLane {
    net::TransferId id = net::kInvalidTransfer;
    bool on = true;  // on/off phase; bulk lanes stay on
    std::uint64_t chunks = 0;
  };

  void start_chunk(core::Testbed& tb, bool bulk, std::size_t slot);
  void toggle(core::Testbed& tb, std::size_t slot);

  CrossTrafficWorkloadSpec spec_;
  std::size_t index_;
  bool stopped_ = false;
  stats::Rng rng_;
  std::vector<FlowLane> bulk_;
  std::vector<FlowLane> onoff_;
};

}  // namespace mvqoe::scenario
