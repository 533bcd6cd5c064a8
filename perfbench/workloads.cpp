#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "campaign/policy_campaign.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/population.hpp"
#include "fleet/runner.hpp"
#include "runner/warm_sweep.hpp"
#include "scenario/driver.hpp"
#include "snapshot/digest.hpp"
#include "stats/rng.hpp"
#include "study/population.hpp"

namespace perfbench {

using namespace mvqoe;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// A span around one public call that also reports its duration.
class Phase {
 public:
  Phase(SpanRecorder& spans, const char* name, std::uint64_t run)
      : span_(spans, name, run), t0_(Clock::now()) {}
  double ms() const { return ms_since(t0_); }
  void arg(const char* key, double value) { span_.arg(key, value); }

 private:
  ScopedSpan span_;
  Clock::time_point t0_;
};

std::uint64_t outcome_digest(const qoe::RunOutcome& outcome) {
  snapshot::ByteWriter w;
  runner::encode_cell_outcome(w, runner::CellRunOutcome{true, outcome, {}});
  return snapshot::digest_bytes(w.view());
}

// --- Output checks -----------------------------------------------------------

/// "" when every session of a finished scenario passes the output checks.
std::string check_scenario(const scenario::ScenarioDriver& driver,
                           const scenario::ScenarioResult& result) {
  for (std::size_t i = 0; i < result.sessions.size(); ++i) {
    const scenario::SessionReport& report = result.sessions[i];
    if (report.result.status == core::RunStatus::TimedOut) {
      return "session '" + report.label + "' timed out";
    }
    // Every benchmark session plays a fixed rung, so frames must close.
    const video::VideoSession* session = driver.video(i).session();
    const video::SessionMetrics& m = session->metrics();
    if (m.frames_presented + m.frames_dropped + m.frames_lost_to_kill !=
        session->fixed_ladder_frame_total()) {
      return "session '" + report.label + "' broke frame conservation";
    }
  }
  const core::Testbed& tb = driver.testbed();
  const mem::MemoryManager::ConservationReport pages = tb.memory.check_conservation();
  if (!pages.ok) return "memory conservation: " + pages.detail;
  if (tb.link.cc_mode()) {
    std::uint64_t live = 0;
    for (const net::FlowStats& flow : tb.link.flow_stats()) live += flow.delivered_bytes;
    if (tb.link.retired_delivered() + live != tb.link.bytes_delivered()) {
      return "link byte conservation: retired + live != delivered";
    }
  }
  return "";
}

// --- Layer counters ------------------------------------------------------------

void collect_mem(const mem::MemoryManager& memory, LayerStats& layers) {
  const mem::VmStat& vm = memory.vmstat();
  layers.add("mem.pgscan", static_cast<double>(vm.pgscan_kswapd + vm.pgscan_direct));
  layers.add("mem.pgsteal", static_cast<double>(vm.pgsteal_kswapd + vm.pgsteal_direct));
  layers.add("mem.pswpout", static_cast<double>(vm.pswpout));
  layers.add("mem.pswpin", static_cast<double>(vm.pswpin));
  layers.add("mem.kswapd_wakeups", static_cast<double>(vm.kswapd_wakeups));
  layers.add("mem.direct_reclaim_entries", static_cast<double>(vm.direct_reclaim_entries));
  layers.add("mem.kills", static_cast<double>(memory.kill_audits().size()));
  layers.add("mem.trim_signals",
             static_cast<double>(vm.trim_signals[1] + vm.trim_signals[2] + vm.trim_signals[3]));
}

void collect_engine(const sim::Engine& engine, LayerStats& layers) {
  layers.add("sim.events", static_cast<double>(engine.dispatched()));
  layers.add("sim.scheduled", static_cast<double>(engine.scheduled()));
  layers.add("sim.cancels", static_cast<double>(engine.cancels()));
  layers.add("sim.compactions", static_cast<double>(engine.compactions()));
}

void collect_testbed(const scenario::ScenarioDriver& driver, LayerStats& layers) {
  const core::Testbed& tb = driver.testbed();
  layers.add("trace.intervals", static_cast<double>(tb.tracer.intervals().size()));
  layers.add("trace.instants", static_cast<double>(tb.tracer.instants().size()));
  layers.add("trace.counter_samples", static_cast<double>(tb.tracer.counters().size()));
  layers.add("trace.preemption_records", static_cast<double>(tb.tracer.preemptions().size()));
  collect_engine(tb.engine, layers);

  const std::size_t threads = tb.scheduler.thread_count();
  layers.add("sched.threads", static_cast<double>(threads));
  for (std::size_t tid = 1; tid <= threads; ++tid) {
    const sched::ThreadCounters& c = tb.scheduler.counters(static_cast<sched::ThreadId>(tid));
    layers.add("sched.context_switches", static_cast<double>(c.context_switches));
    layers.add("sched.preemptions", static_cast<double>(c.preemptions_suffered));
    layers.add("sched.migrations", static_cast<double>(c.migrations));
  }

  collect_mem(tb.memory, layers);

  const storage::StorageCounters& io = tb.storage.counters();
  layers.add("storage.requests", static_cast<double>(io.reads + io.writes));
  layers.add("storage.bytes", static_cast<double>(io.read_bytes + io.written_bytes));
  layers.add("storage.retries", static_cast<double>(io.io_retries));

  layers.add("net.transfers", static_cast<double>(tb.link.counters().completed));
  layers.add("net.packets_sent", static_cast<double>(tb.link.packets_sent()));
  layers.add("net.packets_dropped", static_cast<double>(tb.link.packets_dropped()));
  layers.add("net.qdelay_total_us", static_cast<double>(tb.link.queue_delay().total));
  layers.add("net.qdelay_samples", static_cast<double>(tb.link.queue_delay().samples));

  for (std::size_t i = 0; i < driver.video_count(); ++i) {
    const video::SessionMetrics& m = driver.video(i).session()->metrics();
    layers.add("video.frames_presented", static_cast<double>(m.frames_presented));
    layers.add("video.frames_dropped", static_cast<double>(m.frames_dropped));
    layers.add("video.frames_lost_to_kill", static_cast<double>(m.frames_lost_to_kill));
    layers.add("video.rebuffers", static_cast<double>(m.rebuffer_events));
    layers.add("video.relaunches", static_cast<double>(m.relaunches));
  }
  layers.add("proc.respawns", static_cast<double>(tb.am.respawn_count()));
}

// --- One scenario session --------------------------------------------------------

struct Cell {
  int height = 0;
  int fps = 0;
  std::uint64_t video_seed = 0;
};

struct SessionRun {
  RunSample sample;
  std::uint64_t digest = 0;
  std::string failure;
  /// Outcome of session 0 (valid when sample.ok).
  qoe::RunOutcome outcome;
};

/// Drive one scenario through construct/prepare/start/advance_slice/
/// state_digest/finalize and check its outputs. `cell` retargets video
/// 0 between prepare and start, as the warm-start sweep's children do.
SessionRun run_session(const scenario::ScenarioSpec& spec, SpanRecorder& spans,
                       LayerStats* layers, std::uint64_t run, const Cell* cell = nullptr) {
  SessionRun out;
  const Clock::time_point t0 = Clock::now();
  try {
    ScopedSpan run_span(spans, "bench.run", run);
    std::unique_ptr<scenario::ScenarioDriver> driver;
    {
      Phase p(spans, "scenario.construct", run);
      driver = std::make_unique<scenario::ScenarioDriver>(spec);
    }
    const core::Testbed& tb = driver->testbed();
    double prepare_ms = 0.0;
    {
      Phase p(spans, "scenario.prepare", run);
      driver->prepare();
      prepare_ms = p.ms();
    }
    if (cell != nullptr) driver->set_cell(cell->height, cell->fps, cell->video_seed);
    double start_ms = 0.0;
    {
      Phase p(spans, "scenario.start", run);
      driver->start();
      start_ms = p.ms();
    }
    const std::uint64_t events_before = tb.engine.dispatched();
    double session_ms = 0.0;
    {
      Phase p(spans, "scenario.session", run);
      for (;;) {
        ScopedSpan slice(spans, "scenario.advance_slice", run);
        if (!driver->advance_slice()) break;
        if (spans.enabled()) {
          spans.counter("engine.dispatched", static_cast<double>(tb.engine.dispatched()));
          spans.counter("mem.pgscan", static_cast<double>(tb.memory.vmstat().pgscan_kswapd +
                                                          tb.memory.vmstat().pgscan_direct));
          spans.counter("net.bytes_delivered", static_cast<double>(tb.link.bytes_delivered()));
          spans.counter("trace.intervals", static_cast<double>(tb.tracer.intervals().size()));
        }
      }
      session_ms = p.ms();
      p.arg("events", static_cast<double>(tb.engine.dispatched() - events_before));
    }
    const std::uint64_t session_events = tb.engine.dispatched() - events_before;
    std::uint64_t state = 0;
    double digest_ms = 0.0;
    {
      Phase p(spans, "snapshot.state_digest", run);
      state = driver->state_digest();
      digest_ms = p.ms();
    }
    scenario::ScenarioResult result;
    double finalize_ms = 0.0;
    {
      Phase p(spans, "scenario.finalize", run);
      result = driver->finalize();
      finalize_ms = p.ms();
      p.arg("trace.intervals", static_cast<double>(tb.tracer.intervals().size()));
    }
    {
      ScopedSpan check(spans, "bench.check", run);
      out.failure = check_scenario(*driver, result);
    }

    snapshot::StateHash hash;
    hash.mix(state);
    hash.mix(static_cast<std::uint64_t>(result.status));
    for (const scenario::SessionReport& report : result.sessions) {
      hash.mix(outcome_digest(report.result.outcome));
    }
    out.digest = hash.value();
    if (!result.sessions.empty()) out.outcome = result.sessions.front().result.outcome;
    out.sample.sim_s = sim::to_seconds(tb.engine.now());
    if (layers != nullptr) {
      collect_testbed(*driver, *layers);
      layers->sample("scenario.prepare_ms", prepare_ms);
      layers->sample("scenario.start_ms", start_ms);
      layers->sample("scenario.session_ms", session_ms);
      layers->sample("scenario.finalize_ms", finalize_ms);
      layers->sample("snapshot.digest_ms", digest_ms);
      if (session_events > 0) {
        layers->sample("sim.ns_per_event", session_ms * 1e6 / static_cast<double>(session_events));
      }
    }
    {
      ScopedSpan teardown(spans, "scenario.destroy", run);
      driver.reset();
    }
    if (layers != nullptr) layers->sample("scenario.prepare_share", prepare_ms / ms_since(t0));
  } catch (const std::exception& e) {
    out.failure = std::string("exception: ") + e.what();
  }
  out.sample.host_ms = ms_since(t0);
  out.sample.ok = out.failure.empty();
  return out;
}

// --- pressure_grid / cc_contention -----------------------------------------------

/// A fixed list of scenario sessions, run one after another.
class SessionList : public Workload {
 public:
  using Generator = std::vector<scenario::ScenarioSpec> (*)(std::uint64_t seed);
  explicit SessionList(Generator generator) : generator_(generator) {}

  void generate(std::uint64_t seed) override { specs_ = generator_(seed); }

  void warm_up() override { run_session(specs_.front(), quiet_, nullptr, 0); }

  PassResult run_pass(SpanRecorder& spans, LayerStats* layers) override {
    PassResult pass;
    snapshot::StateHash hash;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const SessionRun run = run_session(specs_[i], spans, layers, i);
      pass.runs.push_back(run.sample);
      hash.mix(run.digest);
      if (!run.sample.ok && pass.failure.empty()) {
        pass.failure = "run " + std::to_string(i) + ": " + run.failure;
      }
    }
    pass.digest = hash.value();
    return pass;
  }

 private:
  Generator generator_;
  std::vector<scenario::ScenarioSpec> specs_;
  SpanRecorder quiet_{false};
};

/// Seeds per pressure_grid cell in one pass.
constexpr int kGridReps = 2;

std::vector<scenario::ScenarioSpec> pressure_grid_specs(std::uint64_t seed) {
  struct Rung {
    int height;
    int fps;
  };
  const Rung rungs[] = {{480, 30}, {720, 60}, {1080, 60}};
  const char* families[] = {"fig09", "fig11"};  // Nokia 1, Nexus 5
  const mem::PressureLevel states[] = {mem::PressureLevel::Normal, mem::PressureLevel::Moderate,
                                       mem::PressureLevel::Low, mem::PressureLevel::Critical};
  std::vector<scenario::ScenarioSpec> specs;
  for (int rep = 0; rep < kGridReps; ++rep) {
    for (const char* family : families) {
      for (const mem::PressureLevel state : states) {
        for (const Rung& rung : rungs) {
          const std::uint64_t run_seed = stats::derive_seed(seed, specs.size());
          specs.push_back(
              scenario::single_video(family, rung.height, rung.fps, 60, state, run_seed));
        }
      }
    }
  }
  return specs;
}

/// Sessions per congestion controller in one cc_contention pass.
constexpr int kCcReps = 4;

std::vector<scenario::ScenarioSpec> cc_contention_specs(std::uint64_t seed) {
  std::vector<scenario::ScenarioSpec> specs;
  for (int rep = 0; rep < kCcReps; ++rep) {
    for (const char* cc : {"cubic", "bbr", "c4"}) {
      const std::uint64_t run_seed = stats::derive_seed(seed, specs.size());
      scenario::ScenarioSpec spec =
          scenario::single_video("fig16", 480, 30, 60, mem::PressureLevel::Low, run_seed);
      spec.net.cc = cc;
      scenario::CrossTrafficWorkloadSpec cross;
      cross.bulk_flows = 1;
      cross.onoff_flows = 1;
      cross.on_s = 2;
      cross.off_s = 1;
      cross.chunk_bytes = 512 * 1024;
      cross.seed = stats::derive_seed(run_seed, 1);
      spec.workloads.emplace_back(cross);
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

// --- fleet_signals -----------------------------------------------------------------

/// Fleets per fleet_signals pass, and devices per fleet (shards of 512,
/// the documented recipe). A fleet's seed also draws the apps preloaded
/// into each (family, cohort) world template, which sets most of a
/// device's boot cost; one fleet per seed made runs_per_s and p50 swing
/// by 15% between seeds, and eight average that out.
constexpr std::uint64_t kFleets = 8;
constexpr std::uint64_t kFleetDevices = 1024;

class FleetSignals : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    specs_.clear();
    devices_.clear();
    for (std::uint64_t f = 0; f < kFleets; ++f) {
      fleet::FleetSpec& spec = specs_.emplace_back();
      spec.devices = kFleetDevices;
      spec.seed = stats::derive_seed(seed, f);
      spec.session_s = 60;
      spec.sample_period_s = 5;
      spec.shard_size = 512;
      std::vector<fleet::FleetDevice>& devices = devices_.emplace_back();
      for (std::uint64_t d = 0; d < spec.devices; ++d) {
        devices.push_back(fleet::sample_fleet_device(d, spec.seed));
      }
    }
    aggregate_digests_.assign(kFleets, 0);
  }

  void warm_up() override {
    fleet::FleetAggregate scratch;
    run_device(specs_.front(), devices_.front().front(), scratch, quiet_, nullptr);
  }

  PassResult run_pass(SpanRecorder& spans, LayerStats* layers) override {
    PassResult pass;
    snapshot::StateHash hash;
    for (std::size_t f = 0; f < specs_.size(); ++f) {
      const fleet::FleetSpec& spec = specs_[f];
      fleet::FleetAggregate total;
      for (std::uint64_t unit = 0; unit < fleet::fleet_total_units(spec); ++unit) {
        const std::uint64_t first = unit * spec.shard_size;
        const std::uint64_t last = std::min(first + spec.shard_size, spec.devices);
        fleet::FleetAggregate shard;
        for (std::uint64_t d = first; d < last; ++d) {
          const RunSample sample = run_device(spec, devices_[f][d], shard, spans, layers);
          pass.runs.push_back(sample);
          if (!sample.ok && pass.failure.empty()) pass.failure = failure_;
        }
        // Shard partials merge in ascending unit order (the fleet's
        // merge-order contract), exactly as fleet::run_fleet reduces them.
        Phase p(spans, "fleet.merge", unit);
        total.merge(shard);
        if (layers != nullptr) layers->sample("fleet.merge_ms", p.ms());
      }
      aggregate_digests_[f] = total.digest();
      hash.mix(aggregate_digests_[f]);
    }
    pass.digest = hash.value();
    return pass;
  }

  /// The decomposed path must reduce to fleet::run_fleet's aggregate.
  CrossCheck final_check() override {
    fleet::FleetRunOptions opts;
    opts.jobs = 1;
    for (std::size_t f = 0; f < specs_.size(); ++f) {
      const fleet::FleetRunResult reference = fleet::run_fleet(specs_[f], opts);
      if (!reference.complete) return {"fleet::run_fleet did not complete", 0};
      if (reference.aggregate.digest() != aggregate_digests_[f]) {
        return {"decomposed fleet aggregate differs from fleet::run_fleet", 0};
      }
    }
    return {};
  }

 private:
  RunSample run_device(const fleet::FleetSpec& spec, const fleet::FleetDevice& device,
                       fleet::FleetAggregate& shard, SpanRecorder& spans, LayerStats* layers) {
    RunSample sample;
    const Clock::time_point t0 = Clock::now();
    try {
      ScopedSpan run_span(spans, "bench.run", device.index);
      std::unique_ptr<fleet::FleetWorld> world;
      {
        Phase p(spans, "fleet.world", device.index);
        world = std::make_unique<fleet::FleetWorld>(
            study::fleet_families().at(device.family).profile(), spec.mem_policy);
      }
      double prepare_ms = 0.0;
      {
        Phase p(spans, "fleet.prepare_world", device.index);
        fleet::prepare_world(*world, device.family, device.cohort, spec);
        prepare_ms = p.ms();
      }
      const std::uint64_t events_before = world->engine.dispatched();
      fleet::DeviceObservations obs;
      double drive_ms = 0.0;
      {
        Phase p(spans, "fleet.drive_session", device.index);
        obs = fleet::drive_session(*world, device, spec);
        drive_ms = p.ms();
      }
      const std::uint64_t session_events = world->engine.dispatched() - events_before;
      double fold_ms = 0.0;
      {
        Phase p(spans, "fleet.fold", device.index);
        shard.fold(obs, spec);
        fold_ms = p.ms();
      }
      {
        ScopedSpan check(spans, "bench.check", device.index);
        const mem::MemoryManager::ConservationReport pages = world->memory.check_conservation();
        if (!pages.ok) failure_ = "device " + std::to_string(device.index) + ": " + pages.detail;
        sample.ok = pages.ok;
      }
      sample.sim_s = sim::to_seconds(world->engine.now());
      if (layers != nullptr) {
        layers->add("fleet.events", static_cast<double>(world->engine.dispatched()));
        collect_engine(world->engine, *layers);
        collect_mem(world->memory, *layers);
        layers->add("proc.respawns", static_cast<double>(world->am.respawn_count()));
        layers->sample("fleet.prepare_world_ms", prepare_ms);
        layers->sample("fleet.drive_session_ms", drive_ms);
        layers->sample("fleet.fold_ms", fold_ms);
        if (session_events > 0) {
          layers->sample("sim.ns_per_event", drive_ms * 1e6 / static_cast<double>(session_events));
        }
      }
      {
        ScopedSpan teardown(spans, "fleet.destroy", device.index);
        world.reset();
      }
      if (layers != nullptr) layers->sample("fleet.prepare_share", prepare_ms / ms_since(t0));
    } catch (const std::exception& e) {
      failure_ = std::string("exception: ") + e.what();
      sample.ok = false;
    }
    sample.host_ms = ms_since(t0);
    return sample;
  }

  std::vector<fleet::FleetSpec> specs_;
  std::vector<std::vector<fleet::FleetDevice>> devices_;
  /// Each fleet's aggregate digest in the last pass.
  std::vector<std::uint64_t> aggregate_digests_;
  std::string failure_;
  SpanRecorder quiet_{false};
};

// --- policy_compare ----------------------------------------------------------------

/// Warm-sweep groups per policy lane in one compare, and the grid shape.
constexpr int kPolicyGroups = 8;
constexpr int kPolicyDurationS = 30;
constexpr int kPolicyOrganicApps = 6;

class PolicyCompare : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    spec_ = campaign::PolicyCompareSpec{};
    spec_.base.family = "fig16";
    spec_.base.duration_s = kPolicyDurationS;
    spec_.base.organic_apps = kPolicyOrganicApps;
    spec_.base.states = {mem::PressureLevel::Normal};  // organic worlds ignore the state
    spec_.base.fps = {30};
    spec_.base.heights = {480, 720};
    spec_.base.runs = kPolicyGroups;
    spec_.base.seed = seed;
    spec_.base.group_workers = 1;
    for (const std::string& name : mem::mem_policy_names()) {
      spec_.policies.push_back(mem::MemPolicySpec{name, {}});
    }
  }

  void warm_up() override {
    campaign::PolicyCompareSpec one = spec_;
    one.policies.resize(1);
    one.base.runs = 1;
    campaign::run_policy_compare(one, campaign::CampaignOptions{});
  }

  PassResult run_pass(SpanRecorder& spans, LayerStats* layers) override {
    PassResult pass;
    const std::uint64_t total = campaign::policy_total_units(spec_);
    const std::size_t cells = spec_.base.fps.size() * spec_.base.heights.size();
    const double unit_sim_s = static_cast<double>(spec_.base.duration_s) * cells;

    // Per-unit latency: inter-arrival time of unit payloads at the
    // coordinator (one worker process, so units land in unit order).
    std::vector<double> arrivals;
    campaign::CampaignOptions opts;
    opts.procs = 1;
    int unit_span = -1;
    const Clock::time_point t0 = Clock::now();
    opts.progress = [&](std::uint64_t done, std::uint64_t) {
      arrivals.push_back(ms_since(t0));
      spans.close(unit_span);
      unit_span = done < total ? spans.open("campaign.unit", done) : -1;
    };
    campaign::PolicyCompareResult result;
    double wall_ms = 0.0;
    {
      Phase p(spans, "campaign.run_policy_compare", 0);
      unit_span = spans.open("campaign.unit", 0);
      result = campaign::run_policy_compare(spec_, opts);
      spans.close(unit_span);
      wall_ms = p.ms();
    }

    snapshot::StateHash hash;
    hash.mix(result.digest);
    payloads_ = result.campaign.payloads;
    if (!result.campaign.complete) pass.failure = "policy compare did not complete";
    for (std::uint64_t unit = 0; unit < total; ++unit) {
      RunSample sample;
      sample.sim_s = unit_sim_s;
      if (unit < arrivals.size()) {
        sample.host_ms = arrivals[unit] - (unit == 0 ? 0.0 : arrivals[unit - 1]);
      }
      sample.ok = unit < result.campaign.completed.size() && result.campaign.completed[unit] &&
                  unit_outcomes_ok(result.campaign.payloads[unit], cells);
      if (!sample.ok && pass.failure.empty()) {
        pass.failure = "unit " + std::to_string(unit) + " failed";
      }
      pass.runs.push_back(sample);
    }

    // Lanes must be pairwise distinct, or the policy axis is a no-op.
    std::vector<std::uint64_t> lanes;
    for (const campaign::PolicyLane& lane : result.lanes) {
      snapshot::StateHash lane_hash;
      for (const runner::SweepCellResult& cell : lane.cells) {
        for (const qoe::RunOutcome& outcome : cell.aggregate.outcomes()) {
          lane_hash.mix(outcome_digest(outcome));
        }
      }
      lanes.push_back(lane_hash.value());
    }
    for (std::size_t a = 0; a < lanes.size(); ++a) {
      for (std::size_t b = a + 1; b < lanes.size(); ++b) {
        if (lanes[a] == lanes[b] && pass.failure.empty()) {
          pass.failure = "policy lanes " + spec_.policies[a].name + " and " +
                         spec_.policies[b].name + " are identical";
        }
      }
    }
    pass.digest = hash.value();

    if (layers != nullptr) {
      layers->add("campaign.units", static_cast<double>(total));
      layers->add("campaign.shards", static_cast<double>(result.campaign.shards.size()));
      for (const campaign::ShardOutcome& shard : result.campaign.shards) {
        layers->add("campaign.shard_attempts", static_cast<double>(shard.attempts));
      }
      for (const RunSample& sample : pass.runs) layers->sample("campaign.unit_ms_p50", sample.host_ms);
      layers->sample("campaign.wall_ms", wall_ms);
      const std::string replica = replay_lanes(spans, *layers);
      if (!replica.empty() && pass.failure.empty()) pass.failure = replica;
    }
    return pass;
  }

  /// A unit's payload carries only each cell's outcome, so once per
  /// invocation every unit of the last compare is re-run in this process
  /// and each cell gets the per-run checks of check_scenario.
  CrossCheck final_check() override {
    CrossCheck check;
    const std::size_t cells = spec_.base.fps.size() * spec_.base.heights.size();
    for (std::uint64_t unit = 0; unit < payloads_.size(); ++unit) {
      // A unit whose payload does not decode already failed in every pass.
      if (!unit_outcomes_ok(payloads_[unit], cells)) continue;
      const std::string failure = replay_unit(unit, quiet_, nullptr);
      if (failure.empty()) continue;
      ++check.failed_runs;
      if (check.failure.empty()) check.failure = "unit " + std::to_string(unit) + ": " + failure;
    }
    return check;
  }

 private:
  static bool unit_outcomes_ok(const std::string& payload, std::size_t cells) {
    try {
      snapshot::ByteReader r(payload);
      if (r.u32() != cells) return false;
      for (std::size_t c = 0; c < cells; ++c) {
        if (!runner::decode_cell_outcome(r).ok) return false;
      }
      return r.done();
    } catch (const std::exception&) {
      return false;
    }
  }

  /// The scenario the compare hands runner::run_warm_group for `lane`.
  scenario::ScenarioSpec lane_proto(std::size_t lane) const {
    scenario::ScenarioSpec proto;
    proto.family = spec_.base.family;
    proto.organic_background_apps = spec_.base.organic_apps;
    proto.mem_policy = spec_.policies.at(lane);
    scenario::VideoWorkloadSpec session;
    session.duration_s = spec_.base.duration_s;
    proto.workloads.emplace_back(std::move(session));
    return proto;
  }

  /// Re-run every cell of `unit` in this process through the scenario
  /// phases, as the unit's forked children run them on its prepared
  /// world. "" when every cell passes check_scenario and reproduces the
  /// compare's payload exactly.
  std::string replay_unit(std::uint64_t unit, SpanRecorder& spans, LayerStats* layers) {
    const std::uint64_t groups = campaign::sweep_total_units(spec_.base);
    const auto runs = static_cast<std::uint64_t>(spec_.base.runs);
    const std::uint64_t group = unit % groups;
    const mem::PressureLevel state = spec_.base.states.at(static_cast<std::size_t>(group / runs));
    const std::uint64_t group_seed =
        runner::sweep_group_seed(spec_.base.seed, state, static_cast<int>(group % runs));
    scenario::ScenarioSpec world = lane_proto(static_cast<std::size_t>(unit / groups));
    world.state = state;
    world.world_seed = group_seed;
    world.seed = group_seed;
    scenario::video_spec(world).seed = group_seed;

    snapshot::ByteReader payload(payloads_.at(unit));
    payload.u32();
    for (const int fps : spec_.base.fps) {
      for (const int height : spec_.base.heights) {
        const runner::CellRunOutcome expected = runner::decode_cell_outcome(payload);
        const Cell cell{height, fps, runner::sweep_video_seed(group_seed, height, fps)};
        const SessionRun run = run_session(world, spans, layers, unit, &cell);
        const std::string label = std::to_string(height) + "p" + std::to_string(fps);
        if (!run.sample.ok) return label + ": " + run.failure;
        if (outcome_digest(run.outcome) != outcome_digest(expected.outcome)) {
          return label + ": in-process replay disagrees with the compare";
        }
      }
    }
    return "";
  }

  /// Traced passes only: re-run group 0 of every lane in this process —
  /// once through runner::run_warm_group, once through the scenario
  /// phases — so the layers the coordinator hides in its workers get
  /// measured. Both must reproduce the compare's payload exactly.
  std::string replay_lanes(SpanRecorder& spans, LayerStats& layers) {
    const std::uint64_t groups = campaign::sweep_total_units(spec_.base);
    for (std::size_t lane = 0; lane < spec_.policies.size(); ++lane) {
      const std::uint64_t unit = lane * groups;
      std::vector<runner::CellRunOutcome> group;
      {
        Phase p(spans, "runner.warm_group", unit);
        group = runner::run_warm_group(lane_proto(lane), spec_.base.states.front(), 0,
                                       spec_.base.fps, spec_.base.heights, spec_.base.seed, 1);
        layers.sample("runner.warm_group_ms", p.ms());
      }
      snapshot::ByteWriter w;
      w.u32(static_cast<std::uint32_t>(group.size()));
      for (const runner::CellRunOutcome& outcome : group) runner::encode_cell_outcome(w, outcome);
      const std::string& name = spec_.policies[lane].name;
      if (w.view() != payloads_.at(unit)) {
        return "runner::run_warm_group disagrees with the compare for lane " + name;
      }
      const std::string failure = replay_unit(unit, spans, &layers);
      if (!failure.empty()) return "lane " + name + ": " + failure;
    }
    return "";
  }

  campaign::PolicyCompareSpec spec_;
  /// Unit payloads of the last compare (identical in every pass).
  std::vector<std::string> payloads_;
  SpanRecorder quiet_{false};
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"pressure_grid", "fleet_signals", "cc_contention",
                                                 "policy_compare"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "pressure_grid") return std::make_unique<SessionList>(pressure_grid_specs);
  if (name == "cc_contention") return std::make_unique<SessionList>(cc_contention_specs);
  if (name == "fleet_signals") return std::make_unique<FleetSignals>();
  if (name == "policy_compare") return std::make_unique<PolicyCompare>();
  return nullptr;
}

const std::vector<MetricDef>& layer_metric_defs() {
  static const std::vector<MetricDef> defs = {
      {"trace.intervals", "count"},
      {"trace.instants", "count"},
      {"trace.counter_samples", "count"},
      {"trace.preemption_records", "count"},
      {"scenario.prepare_ms", "ms"},
      {"scenario.start_ms", "ms"},
      {"scenario.session_ms", "ms"},
      {"scenario.finalize_ms", "ms"},
      {"scenario.prepare_share", "ratio"},
      {"snapshot.digest_ms", "ms"},
      {"sim.events", "count"},
      {"sim.scheduled", "count"},
      {"sim.cancels", "count"},
      {"sim.compactions", "count"},
      {"sim.ns_per_event", "ns"},
      {"sched.threads", "count"},
      {"sched.context_switches", "count"},
      {"sched.preemptions", "count"},
      {"sched.migrations", "count"},
      {"mem.pgscan", "count"},
      {"mem.pgsteal", "count"},
      {"mem.reclaim_efficiency", "ratio"},
      {"mem.pswpout", "count"},
      {"mem.pswpin", "count"},
      {"mem.kswapd_wakeups", "count"},
      {"mem.direct_reclaim_entries", "count"},
      {"mem.kills", "count"},
      {"mem.trim_signals", "count"},
      {"storage.requests", "count"},
      {"storage.bytes", "bytes"},
      {"storage.retries", "count"},
      {"net.transfers", "count"},
      {"net.packets_sent", "count"},
      {"net.packets_dropped", "count"},
      {"net.packet_delivery_ratio", "ratio"},
      {"net.queue_delay_us_mean", "us"},
      {"video.frames_presented", "count"},
      {"video.frames_dropped", "count"},
      {"video.frames_lost_to_kill", "count"},
      {"video.rebuffers", "count"},
      {"video.relaunches", "count"},
      {"proc.respawns", "count"},
      {"fleet.prepare_world_ms", "ms"},
      {"fleet.drive_session_ms", "ms"},
      {"fleet.fold_ms", "ms"},
      {"fleet.merge_ms", "ms"},
      {"fleet.prepare_share", "ratio"},
      {"fleet.events", "count"},
      {"campaign.units", "count"},
      {"campaign.shards", "count"},
      {"campaign.shard_attempts", "count"},
      {"campaign.unit_ms_p50", "ms"},
      {"campaign.wall_ms", "ms"},
      {"runner.warm_group_ms", "ms"},
      {"bench.trace_overhead_pct", "%"},
  };
  return defs;
}

std::map<std::string, double> layer_metric_values(const LayerStats& stats) {
  std::map<std::string, double> values;
  for (const MetricDef& def : layer_metric_defs()) values[def.name] = 0.0;
  for (const auto& [name, count] : stats.counts) {
    if (values.count(name) != 0) values[name] = count;
  }
  for (const auto& [name, samples] : stats.samples) {
    if (values.count(name) != 0) values[name] = median(samples);
  }
  const auto count = [&stats](const char* name) {
    const auto it = stats.counts.find(name);
    return it == stats.counts.end() ? 0.0 : it->second;
  };
  if (count("mem.pgscan") > 0) {
    values["mem.reclaim_efficiency"] = count("mem.pgsteal") / count("mem.pgscan");
  }
  if (count("net.packets_sent") > 0) {
    values["net.packet_delivery_ratio"] =
        (count("net.packets_sent") - count("net.packets_dropped")) / count("net.packets_sent");
  }
  if (count("net.qdelay_samples") > 0) {
    values["net.queue_delay_us_mean"] = count("net.qdelay_total_us") / count("net.qdelay_samples");
  }
  return values;
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

}  // namespace perfbench
