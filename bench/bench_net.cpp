// Congestion-control flow-engine benchmark -> BENCH_net.json.
//
// Two lanes per registered controller (DESIGN.md §17):
//
//   * a flow-engine microbench: a fixed churn workload (concurrent
//     flows, rate steps, loss epochs) driven straight through net::Link,
//     recording flows/s and paced packet events/s so the cost of the
//     bottleneck queue + controller indirection gets a trajectory like
//     BENCH_policy.json, plus the per-CC queuing-delay distribution
//     (mean/max microseconds a packet waited in the droptail queue);
//
//   * a scenario lane: one Low-pressure fig16 cell with competing cross
//     traffic, recording the ABR/CC interplay under reclaim stalls
//     (drop rate, rebuffers, startup delay) per controller.
//
// Each lane's rate is the best of `reps` timed samples, and a sample
// repeats the workload until it has run for at least 10 ms (fifo's
// serial path finishes one in microseconds); `iterations` records how
// many runs the reported sample took.
//
// Two invariants are checked on every run, not just smoke: the
// microbench digest is identical across repetitions (a controller whose
// decisions depend on wall clock or address layout would break
// kill-and-resume), and the four lanes are pairwise distinct (two
// controllers producing byte-identical link state means the CC axis has
// silently become a no-op). `--smoke` additionally fails when the flow
// engine's packet throughput falls below a conservative floor.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "runner/json_writer.hpp"
#include "scenario/driver.hpp"
#include "scenario/spec.hpp"

// Sanitizer instrumentation slows the flow engine ~10x, which says
// nothing about the CC plumbing, so the absolute throughput floor is
// waived under ASan/TSan (digest and distinctness gates still apply).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MVQOE_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MVQOE_BENCH_SANITIZED 1
#endif
#endif
#ifndef MVQOE_BENCH_SANITIZED
#define MVQOE_BENCH_SANITIZED 0
#endif

namespace mvqoe {
namespace {

struct MicroResult {
  std::uint64_t flows_done = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_dropped = 0;
  double qdelay_mean_us = 0.0;
  double qdelay_max_us = 0.0;
  std::uint64_t digest = 0;
};

/// Fixed churn workload: `rounds` waves of six concurrent flows with a
/// rate dip every other wave and a loss epoch every third, then drain.
MicroResult run_micro(const std::string& cc, int rounds) {
  sim::Engine engine;
  net::LinkConfig cfg;
  cfg.rate_mbps = 16.0;
  net::Link link(engine, cfg, net::NetSpec{cc, {}});

  MicroResult out;
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < 6; ++i) {
      link.transfer(192 * 1024 + static_cast<std::uint64_t>(i) * 64 * 1024,
                    [&out](bool ok) { out.flows_done += ok ? 1 : 0; });
    }
    link.set_rate_mbps(round % 2 == 0 ? 16.0 : 6.0);
    link.set_loss_rate(round % 3 == 0 ? 0.02 : 0.0);
    engine.run_until(engine.now() + sim::msec(150));
  }
  link.set_rate_mbps(16.0);
  link.set_loss_rate(0.0);
  engine.run();

  out.packets_sent = link.packets_sent();
  out.packets_dropped = link.packets_dropped();
  out.qdelay_mean_us = link.queue_delay().mean();
  out.qdelay_max_us = static_cast<double>(link.queue_delay().max);
  out.digest = link.digest();
  return out;
}

struct ScenarioRow {
  std::string cc;
  double drop_percent = 0.0;
  int rebuffer_events = 0;
  double startup_delay_s = 0.0;
  bool completed = false;
};

/// One Low-pressure fig16 cell per controller, with competing cross
/// traffic on the non-fifo lanes — the reclaim stalls of the memory
/// axis and the queuing of the network axis land on the same session.
ScenarioRow run_scenario(const std::string& cc, int duration_s) {
  scenario::ScenarioSpec spec =
      scenario::single_video("fig16", 480, 30, duration_s, mem::PressureLevel::Low, 5);
  spec.net.cc = cc;
  if (cc != "fifo") {
    scenario::CrossTrafficWorkloadSpec cross;
    cross.label = "cross";
    cross.bulk_flows = 1;
    cross.onoff_flows = 1;
    cross.on_s = 2;
    cross.off_s = 1;
    cross.chunk_bytes = 512 * 1024;
    cross.seed = 13;
    spec.workloads.emplace_back(cross);
  }
  scenario::ScenarioDriver driver(std::move(spec));
  const scenario::ScenarioResult result = driver.run();

  ScenarioRow row;
  row.cc = cc;
  row.completed = result.status == core::RunStatus::Completed && !result.sessions.empty();
  if (!result.sessions.empty()) {
    const qoe::RunOutcome& outcome = result.sessions.front().result.outcome;
    row.drop_percent = outcome.drop_rate * 100.0;
    row.rebuffer_events = outcome.rebuffer_events;
    row.startup_delay_s = outcome.startup_delay_s;
  }
  return row;
}

}  // namespace
}  // namespace mvqoe

int main(int argc, char** argv) {
  using namespace mvqoe;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int rounds = smoke ? 8 : 24;
  const int reps = smoke ? 2 : 3;
  const int scenario_duration_s = smoke ? 6 : 12;
  const std::vector<std::string> ccs = net::cc_names();

  struct Lane {
    std::string cc;
    MicroResult micro;
    double flows_per_sec = 0.0;
    double packets_per_sec = 0.0;
    double wall_s = 0.0;
    int iterations = 0;  // workload runs in the fastest timed sample
  };
  std::vector<Lane> lanes;
  bool digest_stable = true;
  for (const std::string& cc : ccs) {
    Lane lane;
    lane.cc = cc;
    lane.micro = run_micro(cc, rounds);
    bool varied = false;
    for (int r = 0; r < reps; ++r) {
      // A timed sample repeats the workload until it has run for at least
      // 10 ms, so a lane as cheap as fifo's serial path (microseconds)
      // reports a rate instead of timer resolution.
      int iterations = 0;
      double wall_s = 0.0;
      const auto t0 = std::chrono::steady_clock::now();
      do {
        varied |= run_micro(cc, rounds).digest != lane.micro.digest;
        ++iterations;
        wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      } while (wall_s < 0.01);
      const double flows_per_sec =
          static_cast<double>(lane.micro.flows_done) * iterations / wall_s;
      if (flows_per_sec > lane.flows_per_sec) {
        lane.flows_per_sec = flows_per_sec;
        lane.packets_per_sec = static_cast<double>(lane.micro.packets_sent) * iterations / wall_s;
        lane.wall_s = wall_s;
        lane.iterations = iterations;
      }
    }
    if (varied) {
      digest_stable = false;
      std::fprintf(stderr, "FAIL: '%s' microbench digest varied across repetitions\n",
                   cc.c_str());
    }
    std::printf("net %-6s %10.0f flows/s %12.0f pkts/s  qdelay mean %8.1f us max %8.0f us"
                "  digest=%016llx  (%d runs/sample)\n",
                lane.cc.c_str(), lane.flows_per_sec, lane.packets_per_sec,
                lane.micro.qdelay_mean_us, lane.micro.qdelay_max_us,
                static_cast<unsigned long long>(lane.micro.digest), lane.iterations);
    lanes.push_back(lane);
  }

  bool lanes_distinct = true;
  for (std::size_t a = 0; a < lanes.size(); ++a) {
    for (std::size_t b = a + 1; b < lanes.size(); ++b) {
      if (lanes[a].micro.digest == lanes[b].micro.digest) {
        lanes_distinct = false;
        std::fprintf(stderr, "FAIL: lanes '%s' and '%s' produced identical link state\n",
                     lanes[a].cc.c_str(), lanes[b].cc.c_str());
      }
    }
  }

  std::vector<ScenarioRow> rows;
  bool scenarios_ok = true;
  for (const std::string& cc : ccs) {
    const ScenarioRow row = run_scenario(cc, scenario_duration_s);
    if (!row.completed) {
      scenarios_ok = false;
      std::fprintf(stderr, "FAIL: scenario lane '%s' did not complete\n", cc.c_str());
    }
    std::printf("  fig16/Low x %-6s drop %8.4f%%  rebuffers %2d  startup %6.3fs\n",
                row.cc.c_str(), row.drop_percent, row.rebuffer_events, row.startup_delay_s);
    rows.push_back(row);
  }

  runner::JsonWriter json;
  json.begin_object()
      .field("bench", "net")
      .field("smoke", smoke)
      .field("reps", reps)
      .field("rounds", rounds)
      .field("target_packets_per_sec", 500000.0);
  json.key("lanes").begin_array();
  for (const Lane& lane : lanes) {
    char digest_hex[17];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  static_cast<unsigned long long>(lane.micro.digest));
    json.begin_object()
        .field("cc", lane.cc)
        .field("flows_per_sec", lane.flows_per_sec)
        .field("packets_per_sec", lane.packets_per_sec)
        .field("packets_dropped", lane.micro.packets_dropped)
        .field("queue_delay_mean_us", lane.micro.qdelay_mean_us)
        .field("queue_delay_max_us", lane.micro.qdelay_max_us)
        .field("wall_s", lane.wall_s)
        .field("iterations", lane.iterations)
        .field("digest", digest_hex)
        .end_object();
  }
  json.end_array();
  json.key("scenario").begin_array();
  for (const ScenarioRow& row : rows) {
    json.begin_object()
        .field("cc", row.cc)
        .field("drop_percent", row.drop_percent)
        .field("rebuffer_events", row.rebuffer_events)
        .field("startup_delay_s", row.startup_delay_s)
        .field("completed", row.completed)
        .end_object();
  }
  json.end_array();
  json.field("digest_stable", digest_stable).field("lanes_distinct", lanes_distinct);
  json.end_object();

  const std::string path = runner::bench_json_path("net");
  if (runner::write_file(path, json.str())) {
    std::printf("machine-readable: %s\n", path.c_str());
  }

  if (!digest_stable || !lanes_distinct || !scenarios_ok) return 1;
  if (smoke && !MVQOE_BENCH_SANITIZED) {
    // Regression tripwire: the reference 1-core box pushes well over a
    // million paced packets/sec through the flow engine on the smoke
    // workload; a tenth of that means a per-packet cost regression (an
    // allocation per send, controller state churn in the ack path, ...).
    for (const Lane& lane : lanes) {
      if (lane.cc == "fifo") continue;  // no packets on the serial path
      if (lane.packets_per_sec < 100000.0) {
        std::fprintf(stderr, "FAIL: '%s' packet throughput %.0f pkts/sec < 100000 floor\n",
                     lane.cc.c_str(), lane.packets_per_sec);
        return 1;
      }
    }
  }
  return 0;
}
