// Campaign subsystem tests (DESIGN.md §13): coordinator supervision
// (crash retry, heartbeat kill, retry-budget degradation, no fork while
// run_batch threads are live), the in-process lane (threads, interrupt,
// a throwing unit, checkpoints shared with the fork lane),
// kill-and-resume checkpoint determinism, checkpoint/config round-trips
// and corruption rejection, atomic file replacement, and sweep-campaign
// parity with the in-process grid.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/cli.hpp"
#include "campaign/coordinator.hpp"
#include "campaign/fuzz_campaign.hpp"
#include "campaign/sweep_campaign.hpp"
#include "check/harness.hpp"
#include "runner/batch.hpp"
#include "snapshot/atomic_file.hpp"
#include "snapshot/blob.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#define MVQOE_TEST_FORK 1
#else
#define MVQOE_TEST_FORK 0
#endif

namespace {

using namespace mvqoe;

/// Unique scratch path under the test working directory, cleaned up on
/// destruction.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_("campaign_test_" + name + "_" + std::to_string(::testing::UnitTest::GetInstance()
                                                                 ->random_seed()) +
              ".mvqs") {
    std::remove(path_.c_str());
  }
  ~ScratchFile() {
    std::remove(path_.c_str());
    std::remove(snapshot::atomic_temp_path(path_).c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Trivial deterministic unit: payload is a pure function of the index.
std::string unit_payload(std::uint64_t unit) {
  return "unit-" + std::to_string(unit * unit + 7);
}

campaign::CampaignOptions fast_options() {
  campaign::CampaignOptions opts;
  opts.procs = 3;
  opts.shard_size = 4;
  opts.max_attempts = 3;
  opts.backoff_ms = 5;
  return opts;
}

/// The in-process lane on `jobs` threads.
campaign::CampaignOptions in_process(int jobs) {
  campaign::CampaignOptions opts = fast_options();
  opts.procs = 0;
  opts.jobs = jobs;
  return opts;
}

check::FuzzOptions small_fuzz() {
  check::FuzzOptions opts;
  opts.seed = 11;
  opts.runs = 12;
  opts.generator.max_duration_s = 4;
  opts.check.meta_determinism = false;
  return opts;
}

/// The campaigns' independent reference: every run through
/// execute_fuzz_run in index order, no coordinator in between.
check::FuzzSummary reference_summary(const check::FuzzOptions& opts) {
  std::vector<check::RunRecord> records;
  for (int i = 0; i < opts.runs; ++i) records.push_back(check::execute_fuzz_run(opts, i));
  return check::summarize_records(opts, records);
}

// --- Coordinator ------------------------------------------------------------

TEST(Coordinator, RunsAllUnitsAcrossProcesses) {
  const auto result = campaign::run_campaign(17, unit_payload, fast_options());
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.units_done, 17u);
  EXPECT_EQ(result.units_from_checkpoint, 0u);
  ASSERT_EQ(result.payloads.size(), 17u);
  for (std::uint64_t i = 0; i < 17; ++i) {
    EXPECT_TRUE(result.completed[i]);
    EXPECT_EQ(result.payloads[i], unit_payload(i));
  }
  // ceil(17 / 4) shards, all completed first try.
  ASSERT_EQ(result.shards.size(), 5u);
  for (const auto& shard : result.shards) {
    EXPECT_EQ(shard.status, campaign::ShardStatus::Completed);
    EXPECT_EQ(shard.attempts, 1);
  }
}

TEST(Coordinator, ZeroUnitsIsCompleteAndEmpty) {
  const auto result = campaign::run_campaign(0, unit_payload, fast_options());
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.units_done, 0u);
  EXPECT_TRUE(result.shards.empty());
}

TEST(Coordinator, InterruptFlagStopsBeforeWork) {
  static volatile std::sig_atomic_t flag = 1;
  auto opts = fast_options();
  opts.interrupt = &flag;
  const auto result = campaign::run_campaign(8, unit_payload, opts);
  EXPECT_TRUE(result.interrupted);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.units_done, 0u);
}

TEST(Coordinator, InProcessLaneRunsEveryUnitOnThreads) {
  std::vector<std::uint64_t> progress;
  auto opts = in_process(3);
  opts.progress = [&](std::uint64_t done, std::uint64_t total) {
    EXPECT_EQ(total, 17u);
    progress.push_back(done);
  };
  const auto result = campaign::run_campaign(17, unit_payload, opts);
  ASSERT_TRUE(result.complete);
  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.units_done, 17u);
  EXPECT_EQ(result.procs_used, 0);
  for (std::uint64_t i = 0; i < 17; ++i) EXPECT_EQ(result.payloads[i], unit_payload(i));
  EXPECT_TRUE(result.shards.empty());
  ASSERT_EQ(progress.size(), 17u);
  for (std::size_t i = 0; i < progress.size(); ++i) EXPECT_EQ(progress[i], i + 1);
}

// An interrupt in process stops the lane before the next unit; every
// unit that landed stays, in the result and in the checkpoint.
TEST(Coordinator, InProcessInterruptKeepsLandedUnits) {
  ScratchFile state("inprocess_interrupt");
  static volatile std::sig_atomic_t flag = 0;
  flag = 0;
  auto opts = in_process(1);
  opts.state_path = state.path();
  opts.interrupt = &flag;
  opts.progress = [](std::uint64_t done, std::uint64_t) {
    if (done == 5) flag = SIGINT;
  };
  const auto result = campaign::run_campaign(12, unit_payload, opts);
  EXPECT_TRUE(result.interrupted);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.units_done, 5u);
  for (std::uint64_t i = 0; i < 12; ++i) EXPECT_EQ(result.completed[i], i < 5) << i;
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(result.payloads[i], unit_payload(i));
  const campaign::CheckpointState checkpoint = campaign::read_checkpoint_file(state.path());
  ASSERT_EQ(checkpoint.units.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(checkpoint.units[i], std::make_pair(i, unit_payload(i)));
  }
}

// A unit is a pure function of its index, so in process it gets one
// attempt: a throw leaves the campaign incomplete and names the unit.
TEST(Coordinator, InProcessUnitThrowNamesTheUnit) {
  const auto fn = [](std::uint64_t unit) -> std::string {
    if (unit == 3) throw std::runtime_error("poisoned unit");
    return unit_payload(unit);
  };
  const auto result = campaign::run_campaign(6, fn, in_process(2));
  EXPECT_FALSE(result.complete);
  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.units_done, 5u);
  EXPECT_FALSE(result.completed[3]);
  ASSERT_EQ(result.shards.size(), 1u);
  const campaign::ShardOutcome& failed = result.shards[0];
  EXPECT_EQ(failed.status, campaign::ShardStatus::Failed);
  EXPECT_EQ(failed.first_unit, 3u);
  EXPECT_EQ(failed.unit_count, 1u);
  EXPECT_EQ(failed.attempts, 1);
  EXPECT_EQ(failed.error, "unit 3 threw: poisoned unit");
}

#if MVQOE_TEST_FORK

// One checkpoint format serves both lanes: an interrupted in-process
// run resumes under worker processes, and a degraded fork-lane run
// resumes in process, each to the uninterrupted payloads.
TEST(Coordinator, CheckpointsResumeAcrossLanes) {
  ScratchFile state("crosslane");
  static volatile std::sig_atomic_t flag = 0;
  flag = 0;
  auto in_proc = in_process(1);
  in_proc.state_path = state.path();
  in_proc.interrupt = &flag;
  in_proc.progress = [](std::uint64_t done, std::uint64_t) {
    if (done == 4) flag = SIGTERM;
  };
  const auto partial = campaign::run_campaign(14, unit_payload, in_proc);
  ASSERT_TRUE(partial.interrupted);
  ASSERT_LT(partial.units_done, 14u);

  auto forked = fast_options();
  forked.state_path = state.path();
  forked.resume = true;
  const auto resumed = campaign::run_campaign(14, unit_payload, forked);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.units_from_checkpoint, partial.units_done);
  for (std::uint64_t i = 0; i < 14; ++i) EXPECT_EQ(resumed.payloads[i], unit_payload(i));

  // The reverse: shard [4..8) dies on every attempt, the rest lands.
  ScratchFile degraded_state("crosslane_degraded");
  auto crash = fast_options();
  crash.max_attempts = 1;
  crash.state_path = degraded_state.path();
  crash.hooks.abort_unit = 5;
  crash.hooks.abort_attempts = 99;
  const auto degraded = campaign::run_campaign(14, unit_payload, crash);
  ASSERT_FALSE(degraded.complete);
  auto back = in_process(3);
  back.state_path = degraded_state.path();
  back.resume = true;
  const auto recovered = campaign::run_campaign(14, unit_payload, back);
  ASSERT_TRUE(recovered.complete);
  EXPECT_EQ(recovered.units_from_checkpoint, degraded.units_done);
  for (std::uint64_t i = 0; i < 14; ++i) EXPECT_EQ(recovered.payloads[i], unit_payload(i));
}

TEST(Coordinator, CrashedWorkerIsRetriedAndRecovers) {
  auto opts = fast_options();
  opts.hooks.abort_unit = 5;      // second shard [4..8) dies on attempt 1
  opts.hooks.abort_attempts = 1;
  const auto result = campaign::run_campaign(10, unit_payload, opts);
  ASSERT_TRUE(result.complete);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(result.payloads[i], unit_payload(i));
  bool retried = false;
  for (const auto& shard : result.shards) {
    EXPECT_EQ(shard.status, campaign::ShardStatus::Completed);
    if (shard.first_unit == 4) {
      EXPECT_EQ(shard.attempts, 2);
      retried = true;
    }
  }
  EXPECT_TRUE(retried);
}

TEST(Coordinator, CrashSalvagesUnitsDeliveredBeforeDeath) {
  auto opts = fast_options();
  opts.procs = 1;
  opts.shard_size = 8;
  opts.hooks.abort_unit = 6;  // units 0..5 stream back before the kill
  opts.hooks.abort_attempts = 1;
  const auto result = campaign::run_campaign(8, unit_payload, opts);
  ASSERT_TRUE(result.complete);
  ASSERT_EQ(result.shards.size(), 1u);
  EXPECT_EQ(result.shards[0].attempts, 2);
}

TEST(Coordinator, RetryBudgetExhaustionDegradesNotHangs) {
  auto opts = fast_options();
  opts.max_attempts = 2;
  opts.hooks.abort_unit = 5;
  opts.hooks.abort_attempts = 99;  // every attempt dies
  const auto result = campaign::run_campaign(10, unit_payload, opts);
  EXPECT_FALSE(result.complete);
  // The poisoned shard loses its remainder from the crash point on
  // (units 5..7 of shard [4..8)); everything delivered before each
  // crash and every other shard survives.
  EXPECT_EQ(result.units_done, 7u);
  EXPECT_TRUE(result.completed[4]);
  EXPECT_FALSE(result.completed[5]);
  EXPECT_FALSE(result.completed[6]);
  EXPECT_FALSE(result.completed[7]);
  bool failed_shard = false;
  for (const auto& shard : result.shards) {
    if (shard.status == campaign::ShardStatus::Failed) {
      failed_shard = true;
      EXPECT_EQ(shard.attempts, 2);
      EXPECT_NE(shard.error.find("signal"), std::string::npos) << shard.error;
    }
  }
  EXPECT_TRUE(failed_shard);
}

TEST(Coordinator, HungWorkerIsKilledByHeartbeatAndRetried) {
  auto opts = fast_options();
  opts.heartbeat_timeout_ms = 300;
  opts.hooks.hang_unit = 2;
  opts.hooks.hang_attempts = 1;
  const auto result = campaign::run_campaign(6, unit_payload, opts);
  ASSERT_TRUE(result.complete);
  bool retried = false;
  for (const auto& shard : result.shards) {
    if (shard.first_unit == 0) {
      EXPECT_GE(shard.attempts, 2);
      retried = true;
    }
  }
  EXPECT_TRUE(retried);
}

// The coordinator forks only while single-threaded: a campaign started
// inside a run_batch task refuses instead of forking beside the pool's
// threads, and one started after the batch returns runs normally.
TEST(Campaign, RefusesToForkWhilePoolThreadsRun) {
  const auto inside = runner::run_batch(2, 2, [](std::size_t) {
    return campaign::run_campaign(4, unit_payload, fast_options()).units_done;
  });
  ASSERT_EQ(inside.runs.size(), 2u);
  for (const auto& slot : inside.runs) {
    EXPECT_FALSE(slot.ok);
    EXPECT_NE(slot.error.find("forks only while single-threaded"), std::string::npos)
        << slot.error;
  }
  EXPECT_EQ(runner::live_pool_threads(), 0);
  const auto after = campaign::run_campaign(4, unit_payload, fast_options());
  EXPECT_TRUE(after.complete);
  EXPECT_EQ(after.units_done, 4u);
}

TEST(Coordinator, UnitExceptionSurfacesAsWorkerExit) {
  auto opts = fast_options();
  opts.max_attempts = 2;
  opts.backoff_ms = 1;
  const auto fn = [](std::uint64_t unit) -> std::string {
    if (unit == 3) throw std::runtime_error("poisoned unit");
    return unit_payload(unit);
  };
  const auto result = campaign::run_campaign(6, fn, opts);
  EXPECT_FALSE(result.complete);
  bool failed_shard = false;
  for (const auto& shard : result.shards) {
    if (shard.status == campaign::ShardStatus::Failed) {
      failed_shard = true;
      EXPECT_NE(shard.error.find("code 3"), std::string::npos) << shard.error;
    }
  }
  EXPECT_TRUE(failed_shard);
}

#endif  // MVQOE_TEST_FORK

TEST(Coordinator, CheckpointAndResumeCoverAllUnits) {
  ScratchFile state("resume");
  // Phase 1: run with an interrupt raised mid-campaign so only part of
  // the work lands in the checkpoint.
  static volatile std::sig_atomic_t flag = 0;
  flag = 0;
  auto opts = fast_options();
  opts.procs = 1;
  opts.state_path = state.path();
  opts.interrupt = &flag;
  const auto interrupt_after_one = [&](std::uint64_t unit) {
    if (unit == 5) flag = 1;  // trip the flag from inside a worker-side call
    return unit_payload(unit);
  };
  const auto partial = campaign::run_campaign(12, interrupt_after_one, opts);
  // A worker's write reaches only its own copy of the flag, so the
  // coordinator may still finish. Force a useful precondition either way.
  if (!partial.complete) {
    EXPECT_TRUE(partial.interrupted);
    EXPECT_LT(partial.units_done, 12u);
  }

  // Phase 2: resume (or re-run over the complete checkpoint — also legal).
  auto resume_opts = fast_options();
  resume_opts.state_path = state.path();
  resume_opts.resume = true;
  const auto resumed = campaign::run_campaign(12, unit_payload, resume_opts);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.units_from_checkpoint, partial.units_done);
  for (std::uint64_t i = 0; i < 12; ++i) EXPECT_EQ(resumed.payloads[i], unit_payload(i));
}

TEST(Coordinator, ResumeRejectsFingerprintMismatch) {
  ScratchFile state("fingerprint");
  auto opts = fast_options();
  opts.state_path = state.path();
  opts.config = "config-a";
  ASSERT_TRUE(campaign::run_campaign(4, unit_payload, opts).complete);

  // The coordinator fingerprints the config bytes itself.
  auto resume_opts = fast_options();
  resume_opts.state_path = state.path();
  resume_opts.resume = true;
  resume_opts.config = "config-b";
  EXPECT_THROW(campaign::run_campaign(4, unit_payload, resume_opts), std::runtime_error);
}

TEST(Coordinator, ResumeRejectsUnitCountMismatch) {
  ScratchFile state("unitcount");
  auto opts = fast_options();
  opts.state_path = state.path();
  ASSERT_TRUE(campaign::run_campaign(4, unit_payload, opts).complete);

  auto resume_opts = fast_options();
  resume_opts.state_path = state.path();
  resume_opts.resume = true;
  EXPECT_THROW(campaign::run_campaign(9, unit_payload, resume_opts), std::runtime_error);
}

// --- Checkpoint blob --------------------------------------------------------

campaign::CheckpointState sample_state() {
  campaign::CheckpointState state;
  state.fingerprint = 0xfeedface;
  state.config = "cfg-bytes";
  state.total_units = 9;
  state.units = {{0, "a"}, {3, "bb"}, {8, ""}};
  campaign::ShardOutcome shard;
  shard.first_unit = 0;
  shard.unit_count = 4;
  shard.attempts = 2;
  shard.status = campaign::ShardStatus::Failed;
  shard.error = "worker killed by signal 9";
  state.shards.push_back(shard);
  return state;
}

TEST(Checkpoint, RoundTripsThroughBlob) {
  const auto state = sample_state();
  const auto loaded = campaign::load_checkpoint(campaign::save_checkpoint(state));
  EXPECT_EQ(loaded.fingerprint, state.fingerprint);
  EXPECT_EQ(loaded.config, state.config);
  EXPECT_EQ(loaded.total_units, state.total_units);
  EXPECT_EQ(loaded.units, state.units);
  ASSERT_EQ(loaded.shards.size(), 1u);
  EXPECT_EQ(loaded.shards[0].attempts, 2);
  EXPECT_EQ(loaded.shards[0].status, campaign::ShardStatus::Failed);
  EXPECT_EQ(loaded.shards[0].error, state.shards[0].error);
}

TEST(Checkpoint, RejectsOutOfOrderUnits) {
  auto state = sample_state();
  state.units = {{3, "x"}, {1, "y"}};
  EXPECT_THROW(campaign::load_checkpoint(campaign::save_checkpoint(state)), std::runtime_error);
}

TEST(Checkpoint, RejectsUnitIndexOutOfRange) {
  auto state = sample_state();
  state.units = {{0, "x"}, {9, "y"}};  // total_units == 9: max index is 8
  EXPECT_THROW(campaign::load_checkpoint(campaign::save_checkpoint(state)), std::runtime_error);
}

TEST(Checkpoint, ReadFileWrapsDiagnosticsWithPath) {
  ScratchFile file("missing");
  try {
    campaign::read_checkpoint_file(file.path());
    FAIL() << "expected a throw for a missing checkpoint";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(file.path()), std::string::npos) << e.what();
  }
}

// --- Atomic writes + hardened blob parsing ----------------------------------

TEST(AtomicFile, ReplacesWithoutTempResidue) {
  ScratchFile file("atomic");
  ASSERT_TRUE(snapshot::atomic_write_file(file.path(), "first"));
  ASSERT_TRUE(snapshot::atomic_write_file(file.path(), "second"));
  std::FILE* f = std::fopen(file.path().c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "second");
  EXPECT_FALSE(std::filesystem::exists(snapshot::atomic_temp_path(file.path())));
}

TEST(AtomicFile, FailureLeavesExistingDestinationIntact) {
  // Writing under a nonexistent directory fails without touching
  // anything and without leaving a temp file behind.
  const std::string path = "campaign_test_no_such_dir/state.mvqs";
  EXPECT_FALSE(snapshot::atomic_write_file(path, "bytes"));
  EXPECT_FALSE(std::filesystem::exists(snapshot::atomic_temp_path(path)));
}

TEST(Blob, ShortWriteIsRejectedOnRead) {
  ScratchFile file("short");
  snapshot::Snapshot snap;
  snap.put(snapshot::tag("TEST"), std::string(64, 'x'));
  const std::string full = snap.serialize();
  // Simulate the pre-atomic-write failure mode: a truncated file at the
  // destination. Every truncation point must throw, never misparse.
  for (const std::size_t cut : {full.size() - 1, full.size() / 2, std::size_t{13}}) {
    ASSERT_TRUE(snapshot::atomic_write_file(file.path(), std::string_view(full).substr(0, cut)));
    EXPECT_THROW(snapshot::Snapshot::read_file(file.path()), std::runtime_error) << cut;
  }
}

TEST(Blob, EveryPrefixTruncationThrows) {
  snapshot::Snapshot snap;
  snap.put(snapshot::tag("AAAA"), "payload-one");
  snap.put(snapshot::tag("BBBB"), "payload-two-longer");
  const std::string full = snap.serialize();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_THROW(snapshot::Snapshot::parse(std::string_view(full).substr(0, cut)),
                 std::runtime_error)
        << "prefix length " << cut;
  }
  EXPECT_NO_THROW(snapshot::Snapshot::parse(full));
}

TEST(Blob, SeededCorruptionNeverCrashes) {
  snapshot::Snapshot snap;
  snap.put(snapshot::tag("CAMP"), std::string(128, 'z'));
  const std::string full = snap.serialize();
  std::uint64_t rng = 0x243f6a8885a308d3ULL;  // fixed seed: deterministic
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = full;
    const int flips = 1 + static_cast<int>(rng % 4);
    for (int f = 0; f < flips; ++f) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      mutated[(rng >> 33) % mutated.size()] ^= static_cast<char>(1 << ((rng >> 29) & 7));
    }
    // Must either parse (flip hit a payload byte) or throw — never UB.
    try {
      snapshot::Snapshot::parse(mutated);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(Blob, TrailingGarbageIsRejected) {
  snapshot::Snapshot snap;
  snap.put(snapshot::tag("TEST"), "x");
  const std::string full = snap.serialize() + "garbage";
  EXPECT_THROW(snapshot::Snapshot::parse(full), std::runtime_error);
}

// --- Fuzz campaign ----------------------------------------------------------

TEST(FuzzCampaign, ConfigRoundTripsAndFingerprints) {
  check::FuzzOptions opts = small_fuzz();
  opts.perturb_run = 4;
  opts.check.perturb_at = sim::sec(3);
  const auto decoded = campaign::decode_fuzz_config(campaign::encode_fuzz_config(opts));
  EXPECT_EQ(decoded.seed, opts.seed);
  EXPECT_EQ(decoded.runs, opts.runs);
  EXPECT_EQ(decoded.generator.max_videos, opts.generator.max_videos);
  EXPECT_EQ(decoded.generator.max_duration_s, opts.generator.max_duration_s);
  EXPECT_EQ(decoded.check.meta_determinism, opts.check.meta_determinism);
  EXPECT_EQ(decoded.check.perturb_at, opts.check.perturb_at);
  EXPECT_EQ(decoded.perturb_run, opts.perturb_run);
  // The checkpoint fingerprint is the digest of these bytes.
  EXPECT_EQ(campaign::encode_fuzz_config(decoded), campaign::encode_fuzz_config(opts));
  check::FuzzOptions other_seed = opts;
  other_seed.seed = 999;
  EXPECT_NE(campaign::encode_fuzz_config(other_seed), campaign::encode_fuzz_config(opts));
}

TEST(FuzzCampaign, DigestMatchesInProcessPool) {
  const check::FuzzOptions opts = small_fuzz();
  const check::FuzzSummary serial = reference_summary(opts);

  for (const campaign::CampaignOptions& lane : {fast_options(), in_process(3)}) {
    const auto result = campaign::run_fuzz_campaign(opts, lane);
    ASSERT_TRUE(result.campaign.complete);
    EXPECT_EQ(result.summary.digest, serial.digest) << "procs " << lane.procs;
    EXPECT_EQ(result.summary.failed, serial.failed);
    EXPECT_EQ(result.summary.runs, serial.runs);
  }
}

#if MVQOE_TEST_FORK

TEST(FuzzCampaign, DigestSurvivesWorkerCrashAndRetry) {
  const check::FuzzOptions opts = small_fuzz();
  const check::FuzzSummary serial = reference_summary(opts);

  auto copts = fast_options();
  copts.hooks.abort_unit = 6;
  copts.hooks.abort_attempts = 1;
  const auto result = campaign::run_fuzz_campaign(opts, copts);
  ASSERT_TRUE(result.campaign.complete);
  EXPECT_EQ(result.summary.digest, serial.digest);
}

TEST(FuzzCampaign, KillResumeProducesIdenticalDigest) {
  const check::FuzzOptions opts = small_fuzz();
  const check::FuzzSummary serial = reference_summary(opts);

  ScratchFile state("killresume");
  // The coordinator SIGKILLs itself right after its first progress
  // checkpoint — the kill -9 acceptance scenario, in-process. Fork so
  // the test survives the suicide.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto copts = fast_options();
    copts.procs = 2;
    copts.state_path = state.path();
    copts.hooks.kill_after_checkpoints = 1;
    (void)campaign::run_fuzz_campaign(opts, copts);
    ::_exit(0);  // unreachable: the hook kills the process first
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The checkpoint written microseconds before the SIGKILL must load and
  // resume to the exact serial digest.
  const check::FuzzOptions recovered =
      campaign::load_resume_config(state.path(), campaign::decode_fuzz_config);
  EXPECT_EQ(recovered.seed, opts.seed);
  EXPECT_EQ(recovered.runs, opts.runs);

  auto resume_opts = fast_options();
  resume_opts.procs = 2;
  resume_opts.state_path = state.path();
  resume_opts.resume = true;
  const auto resumed = campaign::run_fuzz_campaign(recovered, resume_opts);
  ASSERT_TRUE(resumed.campaign.complete);
  EXPECT_GT(resumed.campaign.units_from_checkpoint, 0u);
  EXPECT_EQ(resumed.summary.digest, serial.digest);
}

#endif  // MVQOE_TEST_FORK

TEST(FuzzCampaign, DamagedCheckpointFailsWithDiagnosticNotUB) {
  ScratchFile state("damaged");
  // A complete, valid checkpoint...
  auto copts = fast_options();
  copts.state_path = state.path();
  const check::FuzzOptions opts = small_fuzz();
  ASSERT_TRUE(campaign::run_fuzz_campaign(opts, copts).campaign.complete);

  // ...then damaged in place: truncations and byte flips must all raise
  // a clean path-carrying diagnostic through --resume's load path.
  std::FILE* f = std::fopen(state.path().c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string bytes(1 << 20, '\0');
  bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
  std::fclose(f);
  ASSERT_FALSE(bytes.empty());

  const auto expect_diagnostic = [&](const std::string& mutated) {
    ASSERT_TRUE(snapshot::atomic_write_file(state.path(), mutated));
    try {
      (void)campaign::load_resume_config(state.path(), campaign::decode_fuzz_config);
      // Some payload-byte flips still parse; that's fine — resume then
      // fails later on the fingerprint check instead.
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find(state.path()), std::string::npos) << e.what();
    }
  };
  expect_diagnostic(bytes.substr(0, bytes.size() / 2));
  expect_diagnostic(bytes.substr(0, 7));
  expect_diagnostic("");
  std::string flipped = bytes;
  flipped[0] ^= 0x5a;  // magic
  expect_diagnostic(flipped);
  flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x5a;  // somewhere inside the CAMP payload
  expect_diagnostic(flipped);
}

// --- Sweep campaign ---------------------------------------------------------

campaign::SweepCampaignSpec small_sweep() {
  campaign::SweepCampaignSpec spec;
  spec.family = "fig16";
  spec.duration_s = 4;
  spec.states = {mem::PressureLevel::Normal, mem::PressureLevel::Critical};
  spec.fps = {30, 60};
  spec.heights = {240, 480};
  spec.runs = 2;
  spec.seed = 77;
  return spec;
}

TEST(SweepCampaign, ConfigRoundTrips) {
  const auto spec = small_sweep();
  const auto decoded = campaign::decode_sweep_config(campaign::encode_sweep_config(spec));
  EXPECT_EQ(decoded.family, spec.family);
  EXPECT_EQ(decoded.duration_s, spec.duration_s);
  EXPECT_EQ(decoded.states, spec.states);
  EXPECT_EQ(decoded.fps, spec.fps);
  EXPECT_EQ(decoded.heights, spec.heights);
  EXPECT_EQ(decoded.runs, spec.runs);
  EXPECT_EQ(decoded.seed, spec.seed);
  EXPECT_EQ(campaign::encode_sweep_config(decoded), campaign::encode_sweep_config(spec));
}

TEST(SweepCampaign, MatchesInProcessGridByteForByte) {
  const auto spec = small_sweep();
  // The in-process reference: same proto shape the campaign builds.
  scenario::ScenarioSpec proto;
  proto.family = spec.family;
  scenario::VideoWorkloadSpec session;
  session.duration_s = spec.duration_s;
  proto.workloads.emplace_back(std::move(session));
  const auto reference = runner::run_sweep_grid_shared(proto, spec.states, spec.fps,
                                                       spec.heights, spec.runs, 1, spec.seed);

  auto copts = fast_options();
  copts.shard_size = 1;
  const auto result = campaign::run_sweep_campaign(spec, copts);
  ASSERT_TRUE(result.campaign.complete);
  ASSERT_EQ(result.cells.size(), reference.size());

  const std::string reference_json =
      runner::sweep_json("campaign_parity", reference, spec.runs, 1, spec.seed);
  const std::string campaign_json =
      runner::sweep_json("campaign_parity", result.cells, spec.runs, 1, spec.seed);
  EXPECT_EQ(campaign_json, reference_json);
}

TEST(SweepCampaign, ResumeKeepsDigest) {
  const auto spec = small_sweep();
  ScratchFile state("sweepresume");
  auto copts = fast_options();
  copts.shard_size = 1;
  copts.state_path = state.path();
  const auto first = campaign::run_sweep_campaign(spec, copts);
  ASSERT_TRUE(first.campaign.complete);

  // Resume over the complete checkpoint: zero re-execution, same digest.
  const auto recovered = campaign::load_resume_config(state.path(), campaign::decode_sweep_config);
  auto resume_opts = fast_options();
  resume_opts.state_path = state.path();
  resume_opts.resume = true;
  const auto resumed = campaign::run_sweep_campaign(recovered, resume_opts);
  ASSERT_TRUE(resumed.campaign.complete);
  EXPECT_EQ(resumed.campaign.units_from_checkpoint, campaign::sweep_total_units(spec));
  EXPECT_EQ(resumed.digest, first.digest);
}

// --- Campaign command-line layer (campaign/cli) ---------------------------

namespace cli = campaign::cli;

/// Apply `words` (the arguments after the program name) to `flags`;
/// returns the UsageError message, "" if they parse.
std::string parse(const cli::Flags& flags, std::vector<std::string> words) {
  std::vector<char*> argv = {const_cast<char*>("tool")};
  for (std::string& word : words) argv.push_back(word.data());
  try {
    flags.parse(static_cast<int>(argv.size()), argv.data(), 1);
  } catch (const cli::UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(CampaignCli, AcceptsBothFlagSpellings) {
  int runs = 0;
  std::string out;
  bool progress = false;
  cli::Flags flags;
  flags.number("--runs", runs, 1).text("--out", out).toggle("--progress", progress);
  EXPECT_EQ(parse(flags, {"--runs", "7", "--out=a=b", "--progress"}), "");
  EXPECT_EQ(std::tie(runs, out, progress), std::make_tuple(7, "a=b", true));
  EXPECT_EQ(parse(flags, {"--runs=9", "--out", "--progress"}), "");  // values may look like flags
  EXPECT_EQ(std::tie(runs, out), std::make_tuple(9, "--progress"));
}

TEST(CampaignCli, RejectsUnknownFlagsMissingValuesAndBadNumbers) {
  int runs = 0;
  bool progress = false;
  cli::Flags flags;
  flags.number("--runs", runs, 1).toggle("--progress", progress);
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"--rnus", "7"}, "unknown argument '--rnus'"}, {{"--runs"}, "--runs needs a value"},
      {{"--progress=1"}, "--progress takes no value"}, {{"stray"}, "'stray'"},
      {{"--runs", "7x"}, "--runs must be"}, {{"--runs=0"}, "--runs must be"},
      {{"--runs", "2147483648"}, "--runs must be"}};
  for (const auto& [words, message] : cases) {
    EXPECT_NE(parse(flags, words).find(message), std::string::npos) << words.front();
  }
}

TEST(CampaignCli, ListsRejectEmptyItemsAndBadStates) {
  campaign::SweepCampaignSpec spec;
  cli::Flags flags;
  cli::add_sweep_flags(flags, spec);
  EXPECT_EQ(parse(flags, {"--states=low,critical", "--fps", "30,60", "--seed", "0"}), "");
  using mem::PressureLevel;
  EXPECT_EQ(spec.states, (std::vector<PressureLevel>{PressureLevel::Low, PressureLevel::Critical}));
  EXPECT_EQ(spec.fps, (std::vector<int>{30, 60}));
  EXPECT_EQ(spec.seed, 0u);
  for (const auto& [flag, value] : std::vector<std::pair<std::string, std::string>>{
           {"--fps", "30,"}, {"--fps", ",30"}, {"--fps", "30,,60"}, {"--fps", ""},
           {"--heights", "36O"}, {"--states", "low,bogus"}, {"--states", "Low"}}) {
    EXPECT_NE(parse(flags, {flag, value}).find(flag), std::string::npos) << flag << " " << value;
  }
  EXPECT_EQ(cli::parse_state(cli::state_name(mem::PressureLevel::Moderate), "--state"),
            mem::PressureLevel::Moderate);
}

/// The CampaignOptions fields the campaign block sets.
auto option_fields(const campaign::CampaignOptions& o) {
  return std::make_tuple(o.procs, o.shard_size, o.max_attempts, o.heartbeat_timeout_ms,
                         o.backoff_ms, o.state_path, o.resume, o.hooks.abort_unit,
                         o.hooks.abort_attempts, o.hooks.kill_after_checkpoints,
                         static_cast<bool>(o.progress), o.interrupt != nullptr);
}

// Each tool's defaults build the CampaignOptions its own hand-written
// block built: fuzz shards 8 runs and, like fleet, keeps procs 0 (the
// in-process lane) unless a checkpoint engages the coordinator on one
// worker; sweep and compare run one group per shard on one worker.
TEST(CampaignCli, CampaignBlockBuildsEachToolsOptions) {
  struct Tool {
    cli::CampaignFlags defaults;
    bool sharded;
  };
  for (const Tool& tool : {Tool{cli::CampaignFlags(0, 8), true}, Tool{cli::CampaignFlags(), true},
                           Tool{cli::CampaignFlags(0), false}}) {
    cli::CampaignFlags flags = tool.defaults;
    cli::Flags table;
    flags.add_to(table, tool.sharded);
    EXPECT_EQ(parse(table, {}), "");
    EXPECT_EQ(option_fields(cli::CampaignRun(flags, "units").options),
              std::make_tuple(tool.defaults.options.procs, tool.defaults.options.shard_size, 3,
                              120000, 100, std::string(), false, std::int64_t{-1}, 1, 0, false,
                              true));
    EXPECT_EQ(flags.coordinated(), tool.defaults.options.procs > 0);
    EXPECT_EQ(parse(table, {"--procs", "0"}).empty(), tool.defaults.options.procs == 0);
    EXPECT_EQ(parse(table, {"--resume", "r.mvqs"}).empty(), tool.sharded);
  }

  cli::CampaignFlags flags(0, 8);
  cli::Flags table;
  flags.add_to(table, true);
  EXPECT_EQ(parse(table, {"--procs", "4", "--resume=r.mvqs", "--retries", "5", "--heartbeat-ms",
                          "50", "--backoff-ms", "0", "--shard-size", "3",
                          "--kill-after-checkpoints", "2", "--abort-unit", "7",
                          "--abort-attempts", "2", "--progress"}),
            "");
  EXPECT_EQ(option_fields(cli::CampaignRun(flags, "runs").options),
            std::make_tuple(4, std::size_t{3}, 5, 50, 0, std::string("r.mvqs"), true,
                            std::int64_t{7}, 2, 2, true, true));
  EXPECT_EQ(parse(table, {"--state", "s.mvqs"}), "--state and --resume cannot be combined");

  // A checkpoint alone engages the coordinator, on one worker.
  cli::CampaignFlags checkpointed(0);
  checkpointed.set_checkpoint("s.mvqs", /*resume=*/false);
  EXPECT_EQ(cli::CampaignRun(checkpointed, "runs").options.procs, 1);
}

/// A tool's campaign block: its defaults, whether it is sharded, what
/// starts its coordinator and whether it adds mvqoe_fuzz's --minutes.
struct Block {
  cli::CampaignFlags defaults;
  bool sharded;
  const char* starters;
  bool minutes = false;
};

/// The UsageError `block` throws for `words` (after mvqoe_fleet's
/// `resume FILE` operand, when `resume` is set) from its flags or its
/// lane rule; "" if it takes them.
std::string lane_error(const Block& block, std::vector<std::string> words,
                       const char* resume = nullptr) {
  cli::CampaignFlags flags = block.defaults;
  int minutes = 0;
  cli::Flags table;
  flags.add_to(table, block.sharded);
  if (block.minutes) {
    table.value("--minutes", [&](std::string_view v) {
      minutes = runner::parse_number<int>(v, "--minutes", 0);
      if (minutes > 0) flags.given(cli::CampaignFlags::kInProcess, "--minutes");
    });
  }
  if (resume != nullptr) flags.set_checkpoint(resume, /*resume=*/true);
  std::string error = parse(table, std::move(words));
  if (error.empty()) {
    try {
      flags.check_lane(block.starters);
    } catch (const cli::UsageError& e) {
      error = e.what();
    }
  }
  return error;
}

// One lane rule for each block shape the tools use, with the messages
// the tools printed before the rule moved into the block.
TEST(CampaignCli, LaneRuleRefusesFlagsTheChosenLaneIgnores) {
  const Block fuzz{cli::CampaignFlags(0, 8), true, "--procs, --state or --resume", true};
  const Block fleet{cli::CampaignFlags(0, 2), false, "--procs, --state or resume"};
  const Block sweep{cli::CampaignFlags(), true, ""};  // and compare: always coordinated

  // A flag only the coordinator reads, without a starter.
  for (const char* flag : {"--retries", "--heartbeat-ms", "--kill-after-checkpoints",
                           "--abort-unit", "--abort-attempts", "--shard-size", "--backoff-ms"}) {
    EXPECT_EQ(lane_error(fuzz, {flag, "3"}),
              std::string(flag) + " only applies under the coordinator: add " + fuzz.starters);
    EXPECT_EQ(lane_error(fuzz, {"--procs", "1", flag, "3"}), "");
    EXPECT_EQ(lane_error(sweep, {flag, "3"}), "");
  }
  for (const char* flag : {"--retries", "--heartbeat-ms", "--kill-after-checkpoints",
                           "--abort-unit", "--abort-attempts"}) {
    EXPECT_EQ(lane_error(fleet, {flag, "1"}),
              std::string(flag) + " only applies under the coordinator: add " + fleet.starters);
    EXPECT_EQ(lane_error(fleet, {flag, "1"}, "f.mvqs"), "");
  }

  // A flag only the in-process lane reads, beside each starter, before
  // or after it.
  for (const std::vector<std::string>& starter :
       std::vector<std::vector<std::string>>{{"--procs", "1"}, {"--state", "s.mvqs"},
                                             {"--resume", "r.mvqs"}}) {
    for (const std::string flag : {"--jobs", "--minutes"}) {
      const std::string refused = flag + " cannot be combined with " + fuzz.starters;
      std::vector<std::string> words = starter;
      words.insert(words.end(), {flag, "2"});
      EXPECT_EQ(lane_error(fuzz, words), refused);
      words = {flag, "2"};
      words.insert(words.end(), starter.begin(), starter.end());
      EXPECT_EQ(lane_error(fuzz, words), refused);
      EXPECT_EQ(lane_error(fuzz, {flag, "2"}), "");
    }
    std::vector<std::string> words = starter;
    words.insert(words.end(), {"--jobs", "2"});
    EXPECT_EQ(lane_error(fleet, words),
              starter.front() == "--resume" ? "unknown argument '--resume'"
                                            : std::string("--jobs cannot be combined with ") +
                                                  fleet.starters);
  }
  EXPECT_EQ(lane_error(fleet, {"--jobs", "2"}, "f.mvqs"),
            std::string("--jobs cannot be combined with ") + fleet.starters);
  EXPECT_EQ(lane_error(fleet, {"--jobs", "2"}), "");
  EXPECT_EQ(lane_error(fuzz, {"--minutes", "0", "--procs", "1"}), "");  // 0: no soak
  // Two in-process-only flags: the first given is named.
  EXPECT_EQ(lane_error(fuzz, {"--jobs", "2", "--minutes", "1", "--procs", "1"}),
            std::string("--jobs cannot be combined with ") + fuzz.starters);
  EXPECT_EQ(lane_error(fuzz, {"--minutes", "1", "--jobs", "2", "--procs", "1"}),
            std::string("--minutes cannot be combined with ") + fuzz.starters);
  // One of each lane: the chosen lane names the one it ignores.
  EXPECT_EQ(lane_error(fuzz, {"--jobs", "2", "--retries", "3"}),
            std::string("--retries only applies under the coordinator: add ") + fuzz.starters);
  EXPECT_EQ(lane_error(fuzz, {"--retries", "3", "--jobs", "2", "--procs", "1"}),
            std::string("--jobs cannot be combined with ") + fuzz.starters);

  // --state beside --resume, in either order; an empty path is unset.
  const std::string both = "--state and --resume cannot be combined";
  for (const Block& block : {fuzz, sweep}) {
    EXPECT_EQ(lane_error(block, {"--state", "s.mvqs", "--resume", "r.mvqs"}), both);
    EXPECT_EQ(lane_error(block, {"--resume", "r.mvqs", "--state", "s.mvqs"}), both);
    EXPECT_EQ(lane_error(block, {"--state", "s.mvqs", "--resume", ""}), "");
    EXPECT_EQ(lane_error(block, {"--resume", "r.mvqs", "--state", ""}), "");
  }
  EXPECT_EQ(lane_error(fleet, {"--state", "s.mvqs"}, "f.mvqs"), both);
  cli::CampaignFlags flags(0, 2);
  flags.set_checkpoint("s.mvqs", /*resume=*/false);
  EXPECT_THROW(flags.set_checkpoint("f.mvqs", /*resume=*/true), cli::UsageError);
}

/// Everything `fn` prints to the FILE it is given.
template <typename Fn>
std::string printed(Fn fn) {
  std::FILE* out = std::tmpfile();
  fn(out);
  std::string text(static_cast<std::size_t>(std::ftell(out)), '\0');
  std::rewind(out);
  text.resize(std::fread(text.data(), 1, text.size(), out));
  std::fclose(out);
  return text;
}

// The report prints the tools' own lines, byte for byte.
TEST(CampaignCli, ReportPrintsTheToolsLines) {
  campaign::CampaignResult result;
  result.units_from_checkpoint = 3;
  result.units_done = 6;
  result.shards = {{0, 2, 3, campaign::ShardStatus::Failed, "worker killed by signal 9"},
                   {2, 2, 1, campaign::ShardStatus::Completed, ""},
                   {4, 2, 2, campaign::ShardStatus::Completed, ""}};
  std::optional<int> code;
  EXPECT_EQ(printed([&](std::FILE* out) {
              cli::CampaignRun run(cli::CampaignFlags(), "groups", out);
              code = run.report(result, 8);
            }),
            "resumed: 3/8 groups from checkpoint, 3 executed\n"
            "shard groups [0..2) FAILED after 3 attempts: worker killed by signal 9\n"
            "shard groups [4..6) recovered on attempt 2\n");
  EXPECT_FALSE(code.has_value());

  result = {};
  result.units_done = 2;
  result.interrupted = true;
  for (const std::string state : {"", "camp.mvqs"}) {
    EXPECT_EQ(printed([&](std::FILE* out) {
                cli::CampaignFlags flags;
                flags.set_checkpoint(state, /*resume=*/false);
                cli::CampaignRun run(flags, "runs", out);
                std::raise(SIGINT);  // the guard's handler only records it
                code = run.report(result, 8);
              }),
              "interrupted by signal 2: 2/8 runs done, checkpoint " +
                  (state.empty() ? "disabled (--state not set)" : "flushed to " + state) + "\n");
    EXPECT_EQ(code, 128 + SIGINT);
  }
}

}  // namespace
