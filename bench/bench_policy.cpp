// Policy-lab throughput benchmark -> BENCH_policy.json.
//
// Runs the four-policy compare (DESIGN.md §16) on the documented smoke
// grid — one Low-state fig16 cell, every registered reclaim/kill policy
// — and records compare throughput (sweep groups/sec) plus one QoE
// summary row per policy lane, so the cost of the policy indirection
// gets a trajectory like BENCH_fleet.json. Each lane's row also carries
// its wall time per group: units are policy-major and land in unit order
// from the compare's one worker process, so a lane's time is the gap
// between the arrival of its last unit and of the previous lane's last
// (the first lane's also holds the worker's fork). Two invariants are
// checked on every run, not just smoke:
//
//   * the compare digest is identical across repetitions — a policy
//     whose decisions depend on wall clock or address layout would
//     break kill-and-resume, and this is the cheapest place to catch it;
//   * the four lanes are pairwise distinct — if two policies ever
//     produce byte-identical grids the policy axis has silently become
//     a no-op (a factory wiring regression, not a tuning question).
//
// `--smoke` is the bench ctest tier: it additionally fails when compare
// throughput falls below a conservative floor (well under a fifth of what
// a shared 4-vCPU VM sustains), so a per-group cost regression in the
// policy plumbing fails the suite instead of silently landing.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/policy_campaign.hpp"
#include "runner/json_writer.hpp"
#include "runner/video_batch.hpp"
#include "snapshot/digest.hpp"

// Sanitizer instrumentation slows the compare ~10x, which says nothing
// about the policy plumbing, so the absolute throughput floor is waived
// under ASan/TSan (the digest and lane-distinctness gates still apply).
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

campaign::PolicyCompareSpec bench_spec(bool smoke) {
  campaign::PolicyCompareSpec spec;
  spec.base.family = "fig16";
  spec.base.duration_s = smoke ? 8 : 16;
  spec.base.organic_apps = 0;
  spec.base.states = {mem::PressureLevel::Low};
  spec.base.fps = {30};
  spec.base.heights = {480};
  spec.base.runs = smoke ? 2 : 4;
  spec.base.seed = 5;
  for (const std::string& name : mem::mem_policy_names()) {
    spec.policies.push_back(mem::MemPolicySpec{name, {}});
  }
  return spec;
}

struct LaneSummary {
  std::string policy;
  double drop_percent = 0.0;
  double crash_percent = 0.0;
  double peak_pss_mb = 0.0;
  std::uint64_t digest = 0;
  double ms_per_group = 0.0;  ///< best over the repetitions
};

LaneSummary summarize(const campaign::PolicyLane& lane, int runs, std::uint64_t seed) {
  LaneSummary summary;
  summary.policy = lane.policy.name;
  qoe::RunAggregate rollup;
  for (const runner::SweepCellResult& cell : lane.cells) {
    for (const qoe::RunOutcome& outcome : cell.aggregate.outcomes()) rollup.add(outcome);
  }
  summary.drop_percent = rollup.drop_rate().mean * 100.0;
  summary.crash_percent = rollup.crash_rate_percent();
  summary.peak_pss_mb = rollup.peak_pss_mb().mean;
  snapshot::StateHash hash;
  hash.mix_bytes(runner::sweep_json("policy", lane.cells, runs, /*jobs=*/1, seed));
  summary.digest = hash.value();
  return summary;
}

}  // namespace
}  // namespace mvqoe

int main(int argc, char** argv) {
  using namespace mvqoe;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const campaign::PolicyCompareSpec spec = bench_spec(smoke);
  const std::uint64_t groups = campaign::policy_total_units(spec);
  const int reps = smoke ? 2 : 3;

  double best_groups_per_sec = 0.0;
  double best_wall_s = 0.0;
  std::uint64_t digest = 0;
  bool digest_stable = true;
  std::vector<LaneSummary> lanes;
  const std::uint64_t groups_per_lane = groups / spec.policies.size();
  for (int r = 0; r < reps; ++r) {
    std::vector<double> arrivals_ms;  // unit order: one worker lands them in order
    campaign::CampaignOptions options;
    const auto t0 = std::chrono::steady_clock::now();
    options.progress = [&](std::uint64_t, std::uint64_t) {
      arrivals_ms.push_back(
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
              .count());
    };
    const campaign::PolicyCompareResult result = campaign::run_policy_compare(spec, options);
    const double wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                              .count();
    if (!result.campaign.complete || arrivals_ms.size() != groups) {
      std::fprintf(stderr, "FAIL: policy compare campaign did not complete\n");
      return 1;
    }
    if (r == 0) {
      digest = result.digest;
      lanes.clear();
      for (const campaign::PolicyLane& lane : result.lanes) {
        lanes.push_back(summarize(lane, spec.base.runs, spec.base.seed));
      }
    } else if (result.digest != digest) {
      digest_stable = false;
    }
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const double start_ms = i == 0 ? 0.0 : arrivals_ms[i * groups_per_lane - 1];
      const double ms_per_group = (arrivals_ms[(i + 1) * groups_per_lane - 1] - start_ms) /
                                  static_cast<double>(groups_per_lane);
      if (r == 0 || ms_per_group < lanes[i].ms_per_group) lanes[i].ms_per_group = ms_per_group;
    }
    const double groups_per_sec = static_cast<double>(groups) / wall_s;
    if (groups_per_sec > best_groups_per_sec) {
      best_groups_per_sec = groups_per_sec;
      best_wall_s = wall_s;
    }
  }

  std::printf("policy compare %8.1f groups/s  wall %.3fs  %llu groups  digest=%016llx (%s)\n",
              best_groups_per_sec, best_wall_s, static_cast<unsigned long long>(groups),
              static_cast<unsigned long long>(digest),
              digest_stable ? "stable" : "UNSTABLE");
  bool lanes_distinct = true;
  for (std::size_t a = 0; a < lanes.size(); ++a) {
    for (std::size_t b = a + 1; b < lanes.size(); ++b) {
      if (lanes[a].digest == lanes[b].digest) {
        lanes_distinct = false;
        std::fprintf(stderr, "FAIL: lanes '%s' and '%s' produced identical grids\n",
                     lanes[a].policy.c_str(), lanes[b].policy.c_str());
      }
    }
  }
  for (const LaneSummary& lane : lanes) {
    std::printf(
        "  %-12s drop %8.4f%%  crash %6.2f%%  peak PSS %7.2f MB  %6.2f ms/group  lane=%016llx\n",
        lane.policy.c_str(), lane.drop_percent, lane.crash_percent, lane.peak_pss_mb,
        lane.ms_per_group, static_cast<unsigned long long>(lane.digest));
  }

  runner::JsonWriter json;
  json.begin_object()
      .field("bench", "policy")
      .field("smoke", smoke)
      .field("reps", reps)
      .field("target_groups_per_sec", 75.0);
  json.key("config").begin_object()
      .field("family", spec.base.family)
      .field("duration_s", spec.base.duration_s)
      .field("runs", spec.base.runs)
      .field("seed", spec.base.seed)
      .field("groups", groups)
      .field("policies", spec.policies.size())
      .end_object();
  json.key("compare").begin_object()
      .field("groups_per_sec", best_groups_per_sec)
      .field("wall_s", best_wall_s)
      .field("digest_stable", digest_stable)
      .field("lanes_distinct", lanes_distinct)
      .end_object();
  json.key("lanes").begin_array();
  for (const LaneSummary& lane : lanes) {
    char lane_hex[17];
    std::snprintf(lane_hex, sizeof lane_hex, "%016llx",
                  static_cast<unsigned long long>(lane.digest));
    json.begin_object()
        .field("policy", lane.policy)
        .field("drop_percent", lane.drop_percent)
        .field("crash_percent", lane.crash_percent)
        .field("peak_pss_mb", lane.peak_pss_mb)
        .field("ms_per_group", lane.ms_per_group)
        .field("digest", lane_hex)
        .end_object();
  }
  json.end_array();
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(digest));
  json.field("digest", digest_hex);
  json.end_object();

  const std::string path = runner::bench_json_path("policy");
  if (runner::write_file(path, json.str())) {
    std::printf("machine-readable: %s\n", path.c_str());
  }

  if (!digest_stable) {
    std::fprintf(stderr, "FAIL: compare digest varied across repetitions\n");
    return 1;
  }
  if (!lanes_distinct) return 1;
  if (smoke && !MVQOE_BENCH_SANITIZED) {
    // Regression tripwire: a shared 4-vCPU VM sustains about 100-230
    // groups/sec on the smoke grid (Release, GCC 12.2); under 15 means a
    // per-group cost regression (policy factory churn in the world loop,
    // a reclaim plan allocation storm, ...).
    if (best_groups_per_sec < 15.0) {
      std::fprintf(stderr, "FAIL: policy compare throughput %.1f groups/sec < 15 floor\n",
                   best_groups_per_sec);
      return 1;
    }
  }
  return 0;
}
