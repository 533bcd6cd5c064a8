// mvqoe_fuzz — deterministic scenario fuzzer with invariant oracles.
//
//   mvqoe_fuzz [--seed N] [--runs N] [--jobs N] [--out DIR]
//              [--max-videos N] [--max-duration S] [--no-meta]
//              [--perturb-run K] [--perturb-at S]
//       Sample `runs` random scenarios from seed N (run i's world is
//       derive_seed(seed, i+1)) and execute each under the full oracle
//       suite at every 1-second slice boundary, plus run-twice and
//       checkpoint/restore digest-identity checks. Failures are
//       auto-shrunk to a minimal spec, localized to the first
//       diverging/violating event, and written to DIR as self-contained
//       repro blobs. The summary digest is invariant to --jobs.
//       --perturb-run K flips one RNG bit in run K at --perturb-at
//       seconds (default 2) — a manufactured determinism failure for
//       demos and tests. SIGINT/SIGTERM let the runs in flight finish
//       and exit with 128+signo.
//
//   mvqoe_fuzz --minutes N [same flags]
//       Budgeted campaign: keep running batches (each `--runs` worlds,
//       batch b reseeded with derive_seed(seed, 1000000 + b)) until N
//       wall-clock minutes elapse.
//
//   mvqoe_fuzz --procs N [--state FILE] [--shard-size N] [--retries N]
//              [--heartbeat-ms N] [--backoff-ms N] [same flags]
//       Crash-safe multi-process campaign (DESIGN.md §13): runs are
//       sharded across N supervised worker processes; a crashed or hung
//       worker is SIGKILLed and its shard retried with exponential
//       backoff, and with --state every completed shard is checkpointed
//       atomically. SIGINT/SIGTERM flush the checkpoint and exit with
//       128+signo. The digest matches --jobs runs exactly; --jobs and
//       --minutes themselves are refused here (exit 2), and the
//       coordinator's own flags are refused without --procs, --state or
//       --resume.
//
//   mvqoe_fuzz --resume FILE [--procs N]
//       Resume a killed campaign from its checkpoint: the fuzz
//       configuration is reconstructed from the blob (a checkpoint from
//       a different configuration is refused), only the missing runs
//       execute, and the final digest is byte-identical to an
//       uninterrupted run.
//
//   mvqoe_fuzz --repro FILE
//       Load a repro blob and re-run its (shrunk) scenario under the
//       same options; exit 0 iff the recorded oracle trips again.
//
// Exit status: 0 all runs clean / repro reproduced, 1 failures found or
// repro did not reproduce, 2 usage (a malformed flag, named on stderr;
// numbers are strict decimal) or I/O errors, 3 campaign degraded
// (a shard exhausted its retry budget), 128+signo interrupted with the
// checkpoint flushed.
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "campaign/cli.hpp"
#include "campaign/fuzz_campaign.hpp"
#include "check/harness.hpp"
#include "check/shrink.hpp"
#include "mem/policy.hpp"
#include "net/cc.hpp"
#include "stats/rng.hpp"

namespace {

using namespace mvqoe;
namespace cli = campaign::cli;

int usage() {
  std::fprintf(stderr,
               "usage: mvqoe_fuzz [--seed N] [--runs N] [--jobs N] [--out DIR]\n"
               "                  [--max-videos N] [--max-duration S] [--no-meta]\n"
               "                  [--policy NAME[,NAME...]] [--cc NAME[,NAME...]]\n"
               "                  [--perturb-run K]\n"
               "                  [--perturb-at S] [--minutes N] [--progress]\n"
               "       mvqoe_fuzz --procs N [--state FILE] [--shard-size N] [--retries N]\n"
               "                  [--heartbeat-ms N] [--backoff-ms N] [common flags]\n"
               "       mvqoe_fuzz --resume FILE [--procs N]\n"
               "       mvqoe_fuzz --repro FILE\n");
  return 2;
}

struct Args {
  std::uint64_t seed = 1;
  int runs = 100;
  /// Unset = 1; an in-process knob, refused in campaign mode.
  std::optional<int> jobs;
  int minutes = 0;
  std::string out_dir = ".";
  std::string repro_path;
  int max_videos = 3;
  int max_duration = 8;
  /// Memory-policy axis for generated worlds; empty = baseline only.
  std::vector<std::string> policies;
  /// Congestion-control axis for generated worlds; empty = fifo only.
  std::vector<std::string> ccs;
  bool meta = true;
  int perturb_run = -1;
  int perturb_at_s = 2;
  /// procs 0 runs in process on --jobs threads unless --state or
  /// --resume asks for a checkpoint (the multi-process, crash-safe
  /// coordinator).
  cli::CampaignFlags campaign{.procs = 0, .shard_size = 8};
};

Args parse_args(int argc, char** argv) {
  Args args;
  cli::Flags table;
  table.number("--seed", args.seed, std::uint64_t{0})
      .number("--runs", args.runs, 1)
      .value("--jobs",
             [&args](std::string_view v) { args.jobs = runner::parse_number<int>(v, "--jobs", 1); })
      .number("--minutes", args.minutes, 0)
      .text("--out", args.out_dir)
      .text("--repro", args.repro_path)
      .number("--max-videos", args.max_videos, 1)
      .number("--max-duration", args.max_duration, 1)
      .value("--policy",
             [&args](std::string_view v) { args.policies = cli::split_csv(v, "--policy"); })
      .value("--cc", [&args](std::string_view v) { args.ccs = cli::split_csv(v, "--cc"); })
      .toggle("--no-meta", args.meta, false)
      .number("--perturb-run", args.perturb_run, 0)
      .number("--perturb-at", args.perturb_at_s, 0);
  args.campaign.add_to(table, /*sharded=*/true);
  table.parse(argc, argv, 1);
  // A --minutes soak reseeds per batch — one checkpoint cannot describe
  // it — and the coordinator owns parallelism in campaign mode.
  if (args.campaign.coordinated()) {
    if (args.minutes > 0) {
      throw cli::UsageError("--minutes cannot be combined with --procs, --state or --resume");
    }
    if (args.jobs) {
      throw cli::UsageError("--jobs cannot be combined with --procs, --state or --resume");
    }
  }
  args.campaign.require_coordinator("--procs, --state or --resume");
  return args;
}

check::FuzzOptions fuzz_options(const Args& args, std::uint64_t seed) {
  check::FuzzOptions opts;
  opts.seed = seed;
  opts.runs = args.runs;
  opts.generator.max_videos = args.max_videos;
  opts.generator.max_duration_s = args.max_duration;
  opts.generator.policies = args.policies;
  opts.generator.ccs = args.ccs;
  opts.check.meta_determinism = args.meta;
  opts.perturb_run = args.perturb_run;
  opts.perturb_offset = sim::sec(args.perturb_at_s);
  return opts;
}

/// Shrink + localize + write the repro blob for one failure.
void handle_failure(const Args& args, const check::FuzzOptions& opts,
                    const check::FuzzFailure& failure) {
  std::printf("FAIL run=%d seed=%llu oracle=%s\n  %s\n", failure.run,
              static_cast<unsigned long long>(failure.run_seed), failure.violation.oracle.c_str(),
              failure.violation.detail.c_str());
  if (failure.violation.oracle == "exception") return;

  const std::optional<sim::Time> perturb_at =
      failure.run == opts.perturb_run ? std::optional<sim::Time>(opts.perturb_offset)
                                      : std::nullopt;
  check::ShrinkOptions shrink_opts;
  shrink_opts.check = opts.check;
  shrink_opts.perturb_at = perturb_at;
  const check::ShrinkResult shrunk = check::shrink(failure.spec, failure.violation, shrink_opts);
  std::printf("  shrunk: %zu -> %zu workloads (%d attempts, %d accepted)\n",
              failure.spec.workloads.size(), shrunk.minimal.workloads.size(), shrunk.attempts,
              shrunk.accepted);

  const check::Localization loc =
      check::localize_violation(shrunk.minimal, shrunk.violation, perturb_at, opts.check);
  if (loc.located) {
    std::printf("  first divergent event: t=%.6fs seq=%llu subsystem=%s\n",
                sim::to_seconds(loc.event_time), static_cast<unsigned long long>(loc.event_seq),
                loc.subsystem.c_str());
  } else {
    std::printf("  localization: %s\n", loc.detail.c_str());
  }

  check::Repro repro;
  repro.spec = shrunk.minimal;
  repro.run_seed = failure.run_seed;
  repro.oracle = shrunk.violation.oracle;
  repro.detail = shrunk.violation.detail;
  repro.offset = shrunk.violation.offset;
  repro.perturb_at = perturb_at;
  const std::string path = args.out_dir + "/repro-run" + std::to_string(failure.run) + ".mvqs";
  if (snapshot::Snapshot::write_file(path, check::save_repro(repro))) {
    std::printf("  repro written: %s (replay with --repro)\n", path.c_str());
  } else {
    std::fprintf(stderr, "mvqoe_fuzz: cannot write %s\n", path.c_str());
  }
}

int cmd_repro(const Args& args) {
  const snapshot::Snapshot blob = snapshot::Snapshot::read_file(args.repro_path);
  const check::Repro repro = check::load_repro(blob);
  std::printf("repro: oracle=%s offset=+%.0fs perturb=%s seed=%llu\n  recorded: %s\n",
              repro.oracle.c_str(), sim::to_seconds(repro.offset),
              repro.perturb_at ? "yes" : "no", static_cast<unsigned long long>(repro.run_seed),
              repro.detail.c_str());
  check::CheckOptions opts;
  opts.meta_determinism = args.meta;
  const check::ReproReport report = check::replay_repro(repro, opts);
  if (report.reproduced) {
    std::printf("REPRODUCED: %s\n  %s\n", report.violation->oracle.c_str(),
                report.violation->detail.c_str());
    return 0;
  }
  if (report.violation) {
    std::printf("DIFFERENT FAILURE: %s\n  %s\n", report.violation->oracle.c_str(),
                report.violation->detail.c_str());
  } else {
    std::printf("NOT REPRODUCED: scenario ran clean\n");
  }
  return 1;
}

/// Run the campaign: in process on --jobs threads, or under the
/// coordinator with --procs, --state or --resume. A --minutes soak runs
/// batches (batch b reseeded with derive_seed(seed, 1000000 + b)) until
/// the deadline.
int run_campaign(const Args& args) {
  using clock = std::chrono::steady_clock;
  const auto deadline = clock::now() + std::chrono::minutes(args.minutes);
  int total_runs = 0;
  int total_failed = 0;
  int batch = 0;
  do {
    cli::CampaignRun run(args.campaign, "runs");
    run.options.jobs = args.jobs.value_or(1);
    check::FuzzOptions opts;
    if (!args.campaign.resume_path.empty()) {
      opts = campaign::load_resume_config(args.campaign.resume_path, campaign::decode_fuzz_config);
      std::printf("resume: %s (seed=%llu runs=%d)\n", args.campaign.resume_path.c_str(),
                  static_cast<unsigned long long>(opts.seed), opts.runs);
    } else {
      const std::uint64_t batch_seed =
          args.minutes > 0
              ? stats::derive_seed(args.seed, 1000000ULL + static_cast<std::uint64_t>(batch))
              : args.seed;
      opts = fuzz_options(args, batch_seed);
    }

    const campaign::FuzzCampaignResult result = campaign::run_fuzz_campaign(opts, run.options);
    run.report_resumed(result.campaign, static_cast<std::uint64_t>(opts.runs), "runs");
    for (const check::FuzzFailure& failure : result.summary.failures) {
      handle_failure(args, opts, failure);
    }
    run.report_shards(result.campaign, "runs");
    if (const std::optional<int> code = run.report_interrupt(
            result.campaign.interrupted, result.campaign.units_done,
            static_cast<std::uint64_t>(opts.runs))) {
      return *code;
    }
    if (!result.campaign.complete) {
      std::printf("campaign degraded: %llu/%d runs completed, %d failed among them\n",
                  static_cast<unsigned long long>(result.campaign.units_done), opts.runs,
                  result.summary.failed);
      std::fflush(stdout);
      return 3;
    }
    std::printf("fuzz summary: seed=%llu runs=%d failed=%d digest=%016llx\n",
                static_cast<unsigned long long>(opts.seed), result.summary.runs,
                result.summary.failed, static_cast<unsigned long long>(result.summary.digest));
    std::fflush(stdout);
    total_runs += result.summary.runs;
    total_failed += result.summary.failed;
    ++batch;
  } while (args.minutes > 0 && clock::now() < deadline);
  if (args.minutes > 0) {
    std::printf("campaign: %d batches, %d runs, %d failed\n", batch, total_runs, total_failed);
  }
  return total_failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run_tool("mvqoe_fuzz", usage, [&] {
    const Args args = parse_args(argc, argv);
    for (const std::string& name : args.policies) {
      mvqoe::mem::validate_policy_spec({name, {}});
    }
    for (const std::string& name : args.ccs) {
      mvqoe::net::validate_net_spec({name, {}});
    }
    if (!args.repro_path.empty()) return cmd_repro(args);
    return run_campaign(args);
  });
}
