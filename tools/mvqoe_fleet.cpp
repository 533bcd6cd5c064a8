// mvqoe_fleet — million-device fleet simulation (DESIGN.md §15).
//
//   mvqoe_fleet run [--devices N] [--seed N] [--session-s S]
//                   [--sample-period S] [--warmup-s S] [--shard-size N]
//                   [--jobs N] [--procs N] [--state FILE]
//                   [--retries N] [--heartbeat-ms N]
//                   [--save FILE] [--report FILE] [--progress]
//       Drive `devices` simulated device-sessions sampled from the
//       study population model (device family x usage cohort), reduced
//       shard by shard into one streaming FleetAggregate — peak memory
//       is O(shard), not O(fleet). The report digest is byte-identical
//       across serial, --jobs N threads, --procs N supervised worker
//       processes and kill-and-resume (--jobs is for in-process runs:
//       with --procs or --state it exits 2, and without them so do the
//       coordinator's own flags). --save bundles (config, aggregate) as
//       an MVQS blob; --report writes the Figs 2-6 report JSON.
//
//   mvqoe_fleet resume FILE [--procs N]
//                   [--save FILE] [--report FILE] [--progress]
//       Resume a killed run from its campaign checkpoint. The fleet
//       config is reconstructed from the blob (a checkpoint recorded
//       under a different config is refused); only missing shards run,
//       and the digest and report bytes match an uninterrupted run.
//
//   mvqoe_fleet report FILE [--out FILE]
//       Re-render the report JSON from a --save blob (stdout default).
//
// Exit status: 0 complete, 2 usage (a malformed flag, named on stderr;
// numbers are strict decimal) or I/O errors, 3 campaign degraded (a shard
// exhausted its retry budget), 128+signo interrupted with the checkpoint
// flushed.
#include <cstdio>
#include <optional>
#include <string>

#include "campaign/cli.hpp"
#include "fleet/runner.hpp"
#include "runner/json_writer.hpp"

namespace {

using namespace mvqoe;
namespace cli = campaign::cli;

int usage() {
  std::fprintf(stderr,
               "usage: mvqoe_fleet run [--devices N] [--seed N] [--session-s S]\n"
               "                       [--policy NAME] [--cc NAME]\n"
               "                       [--sample-period S] [--warmup-s S] [--shard-size N]\n"
               "                       [--jobs N] [--procs N] [--state FILE]\n"
               "                       [--retries N] [--heartbeat-ms N]\n"
               "                       [--save FILE] [--report FILE] [--progress]\n"
               "       mvqoe_fleet resume FILE [--procs N]\n"
               "                       [--save FILE] [--report FILE] [--progress]\n"
               "       mvqoe_fleet report FILE [--out FILE]\n"
               "--progress paints a devices done/total + devices/sec + ETA line on stderr\n");
  return 2;
}

struct Args {
  fleet::FleetSpec spec;
  /// Unset = 1; an in-process knob, refused under the coordinator.
  std::optional<int> jobs;
  /// In process unless --procs/--state; two fleet units per coordinator shard.
  cli::CampaignFlags campaign{.procs = 0, .shard_size = 2};
  std::string blob_path;  // the FILE operand of resume and report
  std::string save_path;
  std::string report_path;
  std::string out_path;
};

/// `run`, `resume FILE` and `report FILE` share one flag table.
Args parse_args(int argc, char** argv, const std::string& command) {
  Args args;
  int first = 2;
  if (command == "resume" || command == "report") {
    if (argc <= first || argv[first][0] == '-') throw cli::UsageError(command + " needs a FILE");
    args.blob_path = argv[first++];
  }
  cli::Flags table;
  table.number("--devices", args.spec.devices, std::uint64_t{1})
      .number("--seed", args.spec.seed, std::uint64_t{0})
      .number("--session-s", args.spec.session_s, 1)
      .text("--policy", args.spec.mem_policy.name)
      .text("--cc", args.spec.net.cc)
      .number("--sample-period", args.spec.sample_period_s, 1)
      .number("--warmup-s", args.spec.warmup_s, 0)
      .number("--shard-size", args.spec.shard_size, std::uint64_t{1})
      .value("--jobs",
             [&args](std::string_view v) { args.jobs = runner::parse_number<int>(v, "--jobs", 1); })
      .text("--save", args.save_path)
      .text("--report", args.report_path)
      .text("--out", args.out_path);
  args.campaign.add_to(table, /*sharded=*/false);
  table.parse(argc, argv, first);
  if (command == "resume") args.campaign.resume_path = args.blob_path;
  // The coordinator owns parallelism: its runs never read --jobs.
  if (args.campaign.coordinated() && args.jobs) {
    throw cli::UsageError("--jobs cannot be combined with --procs, --state or resume");
  }
  args.campaign.require_coordinator("--procs, --state or resume");
  return args;
}

int run_or_resume(Args args, bool resume) {
  cli::CampaignRun run(args.campaign, "devices");
  if (resume) {
    args.spec = campaign::load_resume_config(args.blob_path, fleet::decode_fleet_config);
    std::printf("resume: %s (devices=%llu session=%ds shard=%llu)\n", args.blob_path.c_str(),
                static_cast<unsigned long long>(args.spec.devices), args.spec.session_s,
                static_cast<unsigned long long>(args.spec.shard_size));
  }
  run.options.jobs = args.jobs.value_or(1);
  const fleet::FleetRunResult result = fleet::run_fleet(args.spec, {.campaign = run.options});
  run.report_resumed(result.campaign, fleet::fleet_total_units(args.spec), "shards");
  run.report_shards(result.campaign, "units");
  if (const std::optional<int> code =
          run.report_interrupt(result.interrupted, result.devices_done, args.spec.devices)) {
    return *code;
  }

  std::printf("fleet: %llu/%llu devices, %.2fs wall, %.0f devices/sec, peak RSS %.1f MB, "
              "digest=%016llx\n",
              static_cast<unsigned long long>(result.devices_done),
              static_cast<unsigned long long>(args.spec.devices), result.wall_s,
              result.devices_per_sec, result.peak_rss_mb,
              static_cast<unsigned long long>(result.digest));

  if (!result.complete) {
    std::fflush(stdout);
    return 3;
  }
  if (!args.save_path.empty()) {
    if (!snapshot::Snapshot::write_file(args.save_path,
                                        save_fleet_blob(args.spec, result.aggregate))) {
      std::fprintf(stderr, "mvqoe_fleet: cannot write %s\n", args.save_path.c_str());
      return 2;
    }
    std::printf("aggregate blob: %s\n", args.save_path.c_str());
  }
  if (!args.report_path.empty()) {
    if (!runner::write_file(args.report_path, fleet_report_json(args.spec, result.aggregate))) {
      std::fprintf(stderr, "mvqoe_fleet: cannot write %s\n", args.report_path.c_str());
      return 2;
    }
    std::printf("report: %s\n", args.report_path.c_str());
  }
  std::fflush(stdout);
  return 0;
}

int cmd_report(const Args& args) {
  const snapshot::Snapshot blob = snapshot::Snapshot::read_file(args.blob_path);
  const auto [spec, aggregate] = fleet::load_fleet_blob(blob);
  const std::string json = fleet_report_json(spec, aggregate);
  if (args.out_path.empty()) {
    std::fwrite(json.data(), 1, json.size(), stdout);
    return 0;
  }
  if (!runner::write_file(args.out_path, json)) {
    std::fprintf(stderr, "mvqoe_fleet: cannot write %s\n", args.out_path.c_str());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run_tool("mvqoe_fleet", usage, [&] {
    const std::string command = argc < 2 ? "" : argv[1];
    if (command != "run" && command != "resume" && command != "report") return usage();
    const Args args = parse_args(argc, argv, command);
    if (command == "report") return cmd_report(args);
    return run_or_resume(args, /*resume=*/command == "resume");
  });
}
