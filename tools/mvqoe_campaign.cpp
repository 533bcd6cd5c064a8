// mvqoe_campaign — crash-safe multi-process bench/sweep campaigns.
//
//   mvqoe_campaign sweep [--family F] [--duration S] [--organic N]
//                        [--states s1,s2,...] [--fps n1,n2,...]
//                        [--heights h1,h2,...] [--runs N] [--seed N]
//                        [--procs N] [--group-workers N] [--state FILE]
//                        [--shard-size N] [--retries N] [--heartbeat-ms N]
//                        [--backoff-ms N] [--out NAME]
//       Run a shared-seed sweep grid (states x fps x heights, `runs`
//       repetitions per cell) as a supervised multi-process campaign
//       (DESIGN.md §13). One campaign unit is one (state, run) group:
//       the worker runs the group's (fps, height) cells, each booting
//       the group's world seed, --group-workers at a time on threads
//       (runner/warm_sweep). Crashed or hung workers are SIGKILLed and
//       retried with exponential backoff; with --state every completed
//       group is checkpointed atomically.
//       --out writes the grid as BENCH_<NAME>.json (the same payload
//       runner::write_sweep_json produces, byte-identical to an
//       in-process run of the same grid).
//
//   mvqoe_campaign sweep --resume FILE [--procs N] [--group-workers N]
//       Resume a killed campaign: the grid is reconstructed from the
//       checkpoint (a checkpoint recorded under a different grid is
//       refused), only the missing groups run, and the digest and BENCH
//       json are byte-identical to an uninterrupted run.
//
// Exit status: 0 complete, 2 usage (a malformed flag, named on stderr;
// numbers are strict decimal) or I/O errors, 3 campaign degraded (a shard
// exhausted its retry budget), 128+signo interrupted with the checkpoint
// flushed.
#include <cstdio>
#include <string>

#include "campaign/cli.hpp"
#include "campaign/sweep_campaign.hpp"
#include "runner/video_batch.hpp"

namespace {

using namespace mvqoe;
namespace cli = campaign::cli;

int usage() {
  std::fprintf(stderr,
               "usage: mvqoe_campaign sweep [--family F] [--duration S] [--organic N]\n"
               "                            [--states s1,s2,...] [--fps n1,n2,...]\n"
               "                            [--heights h1,h2,...] [--runs N] [--seed N]\n"
               "                            [--policy NAME] [--cc NAME] [--procs N]\n"
               "                            [--group-workers N]\n"
               "                            [--state FILE] [--shard-size N] [--retries N]\n"
               "                            [--heartbeat-ms N] [--backoff-ms N] [--out NAME]\n"
               "                            [--progress]\n"
               "       mvqoe_campaign sweep --resume FILE [--procs N] [--group-workers N]\n"
               "states: normal moderate low critical\n"
               "--progress paints a done/total + units/sec + ETA line on stderr\n");
  return 2;
}

int cmd_sweep(int argc, char** argv) {
  campaign::SweepCampaignSpec spec;
  cli::CampaignFlags flags;  // one (state, run) group per shard, one worker
  std::string out_name;
  cli::Flags table;
  cli::add_sweep_flags(table, spec);
  flags.add_to(table, /*sharded=*/true);
  table.text("--policy", spec.mem_policy.name).text("--cc", spec.net.cc).text("--out", out_name);
  table.parse(argc, argv, 2);

  cli::CampaignRun run(flags, "groups");
  if (!flags.resume_path.empty()) {
    const int group_workers = spec.group_workers;
    spec = campaign::load_resume_config(flags.resume_path, campaign::decode_sweep_config);
    spec.group_workers = group_workers;
    std::printf("resume: %s (family=%s %zu states x %zu fps x %zu heights, %d run(s))\n",
                flags.resume_path.c_str(), spec.family.c_str(), spec.states.size(),
                spec.fps.size(), spec.heights.size(), spec.runs);
  }

  const campaign::SweepCampaignResult result = campaign::run_sweep_campaign(spec, run.options);
  const std::uint64_t total = campaign::sweep_total_units(spec);
  if (const std::optional<int> code = run.report(result.campaign, total)) return *code;

  std::printf("sweep campaign: %zu cells x %d run(s), %llu/%llu groups, procs=%d "
              "digest=%016llx\n",
              result.cells.size(), spec.runs,
              static_cast<unsigned long long>(result.campaign.units_done),
              static_cast<unsigned long long>(total), result.campaign.procs_used,
              static_cast<unsigned long long>(result.digest));
  if (!out_name.empty()) {
    const std::string path = runner::write_sweep_json(out_name, result.cells, spec.runs,
                                                      result.campaign.procs_used, spec.seed);
    if (path.empty()) {
      std::fprintf(stderr, "mvqoe_campaign: cannot write BENCH_%s.json\n", out_name.c_str());
      return 2;
    }
    std::printf("machine-readable: %s\n", path.c_str());
  }
  std::fflush(stdout);
  return result.campaign.complete ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run_tool("mvqoe_campaign", usage, [&] {
    if (argc < 2 || std::string(argv[1]) != "sweep") return usage();
    return cmd_sweep(argc, argv);
  });
}
