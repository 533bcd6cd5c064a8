// mvqoe_policy — the "what if Android did X" reclaim/kill policy lab.
//
//   mvqoe_policy compare [--policies p1,p2,...] [--family F] [--duration S]
//                        [--organic N] [--states s1,s2,...] [--fps n1,n2,...]
//                        [--heights h1,h2,...] [--runs N] [--seed N]
//                        [--procs N] [--group-workers N] [--state FILE]
//                        [--shard-size N] [--retries N] [--heartbeat-ms N]
//                        [--backoff-ms N] [--out NAME] [--progress]
//       Run the SAME shared-seed sweep grid once per memory policy
//       (DESIGN.md §16): every policy lane boots identically-seeded
//       device worlds (the sweep_group_seed scheme is policy-blind) and
//       differs only in how its reclaim/kill policy responds, so the
//       per-lane QoE deltas are attributable to the policy alone. Runs
//       as a supervised multi-process campaign; one campaign unit is one
//       (policy, state, run) sweep group. The summary digest is
//       invariant to --procs/--group-workers and to kill-and-resume.
//       --out writes one BENCH_<NAME>_<policy>.json grid per lane.
//
//   mvqoe_policy compare --resume FILE [--procs N] [--group-workers N]
//       Resume a killed compare from its checkpoint (a checkpoint
//       recorded under a different grid or policy list is refused); the
//       digest and lane output are byte-identical to an uninterrupted
//       run.
//
//   mvqoe_policy list
//       Print the registered policy names.
//
// Exit status: 0 complete, 2 usage (a malformed flag, named on stderr;
// numbers are strict decimal) or I/O errors, 3 campaign degraded (a shard
// exhausted its retry budget), 128+signo interrupted with the checkpoint
// flushed.
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/cli.hpp"
#include "campaign/policy_campaign.hpp"
#include "runner/video_batch.hpp"

namespace {

using namespace mvqoe;
namespace cli = campaign::cli;

int usage() {
  std::fprintf(stderr,
               "usage: mvqoe_policy compare [--policies p1,p2,...] [--family F]\n"
               "                            [--duration S] [--organic N]\n"
               "                            [--states s1,s2,...] [--fps n1,n2,...]\n"
               "                            [--heights h1,h2,...] [--runs N] [--seed N]\n"
               "                            [--procs N] [--group-workers N] [--state FILE]\n"
               "                            [--shard-size N] [--retries N]\n"
               "                            [--heartbeat-ms N] [--backoff-ms N]\n"
               "                            [--out NAME] [--progress]\n"
               "       mvqoe_policy compare --resume FILE [--procs N] [--group-workers N]\n"
               "       mvqoe_policy list\n"
               "states: normal moderate low critical\n"
               "policies: baseline swam ariadne partitioned (default: all)\n");
  return 2;
}

/// One deterministic line per (lane, state): the compare's readable
/// output, aggregated across the state's (fps, height) cells.
void print_lane(const campaign::PolicyLane& lane,
                const std::vector<mem::PressureLevel>& states, std::size_t cells_per_state) {
  for (std::size_t s = 0; s < states.size(); ++s) {
    qoe::RunAggregate rollup;
    std::size_t failures = 0;
    for (std::size_t c = 0; c < cells_per_state; ++c) {
      const runner::SweepCellResult& cell = lane.cells[s * cells_per_state + c];
      for (const qoe::RunOutcome& outcome : cell.aggregate.outcomes()) rollup.add(outcome);
      failures += cell.failures;
    }
    const stats::MeanCi drop = rollup.drop_rate();
    const stats::MeanCi rebuffers = rollup.rebuffer_events();
    const stats::MeanCi peak = rollup.peak_pss_mb();
    std::printf("policy=%s state=%s runs=%zu drop=%.4f%%+-%.4f crash=%.2f%% relaunch=%.2f%% "
                "rebuffers=%.3f peak_pss=%.2fMB failures=%zu\n",
                lane.policy.name.c_str(), cli::state_name(states[s]), rollup.runs(),
                drop.mean * 100.0, drop.ci95 * 100.0, rollup.crash_rate_percent(),
                rollup.relaunch_rate_percent(), rebuffers.mean, peak.mean, failures);
  }
}

int cmd_compare(int argc, char** argv) {
  campaign::PolicyCompareSpec spec;
  // Compact compare defaults: the policy axis is the point, the grid is
  // one representative cell ladder.
  spec.base.duration_s = 12;
  spec.base.states = {mem::PressureLevel::Low};
  spec.base.fps = {30};
  spec.base.heights = {480};
  for (const std::string& name : mem::mem_policy_names()) spec.policies.push_back({name, {}});
  cli::CampaignFlags flags;  // one (policy, state, run) group per shard, one worker
  std::string out_name;
  cli::Flags table;
  cli::add_sweep_flags(table, spec.base);
  flags.add_to(table, /*sharded=*/true);
  table.value("--policies", [&spec](std::string_view v) {
    spec.policies.clear();
    for (const std::string& name : cli::split_csv(v, "--policies")) {
      spec.policies.push_back({name, {}});
    }
  });
  table.text("--out", out_name);
  table.parse(argc, argv, 2);

  cli::CampaignRun run(flags, "groups");
  if (run.options.resume) {
    const int group_workers = spec.base.group_workers;
    spec = campaign::load_resume_config(run.options.state_path, campaign::decode_policy_config);
    spec.base.group_workers = group_workers;
    std::printf("resume: %s (family=%s %zu policies x %zu states, %d run(s))\n",
                run.options.state_path.c_str(), spec.base.family.c_str(), spec.policies.size(),
                spec.base.states.size(), spec.base.runs);
  }

  const campaign::PolicyCompareResult result = campaign::run_policy_compare(spec, run.options);
  const std::uint64_t total = campaign::policy_total_units(spec);
  if (const std::optional<int> code = run.report(result.campaign, total)) return *code;

  const std::size_t cells_per_state = spec.base.fps.size() * spec.base.heights.size();
  for (const campaign::PolicyLane& lane : result.lanes) {
    print_lane(lane, spec.base.states, cells_per_state);
  }
  std::printf("policy compare: %zu policies x %zu cells x %d run(s), %llu/%llu groups, "
              "procs=%d digest=%016llx\n",
              spec.policies.size(), cells_per_state * spec.base.states.size(), spec.base.runs,
              static_cast<unsigned long long>(result.campaign.units_done),
              static_cast<unsigned long long>(total), result.campaign.procs_used,
              static_cast<unsigned long long>(result.digest));
  if (!out_name.empty()) {
    for (const campaign::PolicyLane& lane : result.lanes) {
      const std::string bench_name = out_name + "_" + lane.policy.name;
      // Lane JSON is a result artifact: it must be byte-identical across
      // serial, --procs and kill-and-resume, so it always records the
      // canonical serial form rather than this run's procs_used.
      const std::string path = runner::write_sweep_json(bench_name, lane.cells, spec.base.runs,
                                                        /*jobs_used=*/1, spec.base.seed);
      if (path.empty()) {
        std::fprintf(stderr, "mvqoe_policy: cannot write BENCH_%s.json\n", bench_name.c_str());
        return 2;
      }
      std::printf("machine-readable: %s\n", path.c_str());
    }
  }
  std::fflush(stdout);
  return result.campaign.complete ? 0 : 3;
}

int cmd_list() {
  for (const std::string& name : mem::mem_policy_names()) std::printf("%s\n", name.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run_tool("mvqoe_policy", usage, [&] {
    const std::string command = argc < 2 ? "" : argv[1];
    if (command == "list") return cmd_list();
    if (command == "compare") return cmd_compare(argc, argv);
    return usage();
  });
}
