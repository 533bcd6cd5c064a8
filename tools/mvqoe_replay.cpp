// mvqoe_replay — record, verify and bisect deterministic runs.
//
//   mvqoe_replay record <blob> [--family=F] [--height=H] [--fps=N]
//                              [--duration=S] [--state=L] [--seed=N]
//                              [--interval=S] [--videos=N]
//       Run the scenario, sampling the full-state digest every
//       --interval seconds, and write the blob (scenario + digest trail
//       + final per-subsystem state). --videos > 1 records a contention
//       scenario: N concurrent sessions on the same device, each with a
//       derived per-session seed.
//
//   mvqoe_replay info <blob>
//       Print the scenario, checkpoint trail and subsystem digests.
//
//   mvqoe_replay verify <blob> [--perturb-at=S]
//       Re-run the scenario and compare every checkpoint digest.
//       --perturb-at flips one RNG bit S seconds into playback (a
//       manufactured divergence, for demos and tests).
//
//   mvqoe_replay bisect <blob> --perturb-at=S
//       Localize the divergence the perturbation causes: binary-search
//       the digest trail (each probe is a fresh replay), then lockstep
//       two drivers through the first bad interval to name the first
//       diverging event and subsystem.
//
// Flags take `--name=V` or `--name V`; numbers are strict decimal
// (campaign/cli.hpp), and a malformed or unknown flag exits 2 naming it.
//
// Exit status: 0 on success / digests match, 1 on mismatch or divergence,
// 2 on usage or I/O errors, 128+signo when a recording is interrupted by
// SIGINT/SIGTERM (the partial blob is still flushed, atomically).
#include <cstdio>
#include <optional>
#include <string>

#include "campaign/cli.hpp"
#include "runner/scenario_batch.hpp"
#include "snapshot/replay/record.hpp"

namespace {

using namespace mvqoe;
using namespace mvqoe::snapshot;
using namespace mvqoe::snapshot::replay;
namespace cli = mvqoe::campaign::cli;

int usage() {
  std::fprintf(stderr,
               "usage: mvqoe_replay record <blob> [--family=F] [--height=H] [--fps=N]\n"
               "                                  [--duration=S] [--state=L] [--seed=N]\n"
               "                                  [--interval=S] [--videos=N]\n"
               "       mvqoe_replay info   <blob>\n"
               "       mvqoe_replay verify <blob> [--perturb-at=S]\n"
               "       mvqoe_replay bisect <blob> --perturb-at=S\n"
               "families:");
  for (const std::string& family : mvqoe::scenario::scenario_families()) {
    std::fprintf(stderr, " %s", family.c_str());
  }
  std::fprintf(stderr, "\nstates: normal moderate low critical\n");
  return 2;
}

/// --perturb-at=S: flip one RNG bit S seconds into playback.
void add_perturb_flag(cli::Flags& flags, std::optional<sim::Time>& perturb_at) {
  flags.value("--perturb-at", [&perturb_at](std::string_view v) {
    perturb_at = sim::sec(runner::parse_number<int>(v, "--perturb-at", 0));
  });
}

int cmd_record(const std::string& path, int argc, char** argv) {
  std::string family = "fig16";
  int height = 1080;
  int fps = 30;
  int duration_s = 60;
  mem::PressureLevel state = mem::PressureLevel::Normal;
  std::uint64_t seed = 1;
  int videos = 1;
  RecordOptions options;
  cli::Flags flags;
  flags.text("--family", family)
      .number("--height", height, 1)
      .number("--fps", fps, 1)
      .number("--duration", duration_s, 1)
      .value("--state", [&state](std::string_view v) { state = cli::parse_state(v, "--state"); })
      .number("--seed", seed, std::uint64_t{0})
      .number("--videos", videos, 1)
      .value("--interval", [&options](std::string_view v) {
        options.interval = sim::sec(runner::parse_number<int>(v, "--interval", 1));
      });
  add_perturb_flag(flags, options.perturb_at);
  flags.parse(argc, argv, 3);
  mvqoe::scenario::ScenarioSpec scen =
      mvqoe::scenario::single_video(family, height, fps, duration_s, state, seed);
  for (int k = 1; k < videos; ++k) {
    auto video = mvqoe::scenario::video_spec(scen, 0);  // copy of session 0
    video.label = "video" + std::to_string(k);
    video.seed = runner::contention_session_seed(seed, static_cast<std::size_t>(k));
    scen.workloads.emplace_back(std::move(video));
  }
  // Ctrl-C / SIGTERM stop the recording at the next checkpoint boundary;
  // the partial blob is still written atomically so nothing half-formed
  // ever lands at `path`.
  const campaign::InterruptGuard guard;
  options.stop = guard.flag();
  const Snapshot snap = record_run(scen, options);
  if (!Snapshot::write_file(path, snap)) {
    std::fprintf(stderr, "mvqoe_replay: cannot write %s\n", path.c_str());
    return 2;
  }
  const ReplayMeta meta = load_meta(snap);
  std::printf("recorded %s: %zu checkpoints every %lds, final digest %016llx\n", path.c_str(),
              load_trail(snap).size(), static_cast<long>(sim::to_seconds(meta.interval)),
              static_cast<unsigned long long>(meta.final_digest));
  if (guard.interrupted()) {
    std::printf("interrupted by signal %d: partial recording flushed\n", guard.signal_number());
    return guard.exit_code();
  }
  return 0;
}

int cmd_info(const Snapshot& snap) {
  ByteReader r(snap.require(kScenTag));
  const mvqoe::scenario::ScenarioSpec scen = mvqoe::scenario::load_scenario(r);
  const ReplayMeta meta = load_meta(snap);
  std::printf("scenario: family=%s state=%s seed=%llu workloads=%zu\n", scen.family.c_str(),
              mem::to_string(scen.state), static_cast<unsigned long long>(scen.seed),
              scen.workloads.size());
  for (std::size_t i = 0; i < mvqoe::scenario::video_count(scen); ++i) {
    const auto& video = mvqoe::scenario::video_spec(scen, i);
    std::printf("  %-8s %dp@%dfps duration=%ds seed=%llu\n", video.label.c_str(), video.height,
                video.fps, video.duration_s, static_cast<unsigned long long>(video.seed));
  }
  std::printf("recorded: interval=%lds video_start=%.3fs end=+%lds status=%s\n",
              static_cast<long>(sim::to_seconds(meta.interval)),
              sim::to_seconds(meta.video_start),
              static_cast<long>(sim::to_seconds(meta.end_offset)),
              core::to_string(static_cast<core::RunStatus>(meta.status)));
  std::printf("trail:\n");
  for (const TrailEntry& entry : load_trail(snap)) {
    std::printf("  +%4lds  %016llx\n", static_cast<long>(sim::to_seconds(entry.offset)),
                static_cast<unsigned long long>(entry.digest));
  }
  std::printf("subsystems at end:\n");
  for (const auto& [name, digest] : load_subsystem_digests(snap)) {
    std::printf("  %-8s %016llx\n", name.c_str(), static_cast<unsigned long long>(digest));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run_tool("mvqoe_replay", usage, [&] {
    if (argc < 3) return usage();
    const std::string command = argv[1];
    const std::string path = argv[2];
    if (command == "record") return cmd_record(path, argc, argv);
    if (command != "info" && command != "verify" && command != "bisect") return usage();

    std::optional<sim::Time> perturb_at;
    cli::Flags flags;
    if (command != "info") add_perturb_flag(flags, perturb_at);
    flags.parse(argc, argv, 3);
    const Snapshot snap = Snapshot::read_file(path);
    if (command == "info") return cmd_info(snap);
    if (command == "verify") {
      const VerifyReport report = verify_replay(snap, perturb_at);
      std::printf("%s\n", format_report(report).c_str());
      return report.ok ? 0 : 1;
    }
    if (!perturb_at.has_value()) throw cli::UsageError("bisect needs --perturb-at");
    const DivergenceReport report = bisect_divergence(snap, *perturb_at);
    std::printf("%s\n", format_report(report).c_str());
    return report.diverged ? 1 : 0;
  });
}
