// Sharded multi-process campaign coordinator (DESIGN.md §13).
//
// The coordinator partitions a campaign's units into contiguous shards,
// fork()s one supervised worker process per shard (up to `procs`
// concurrently), and collects per-unit result payloads over pipes. Each
// payload frame doubles as a heartbeat: a worker that sends nothing for
// heartbeat_timeout_ms is SIGKILLed and its shard retried with
// exponential backoff. Units a crashed attempt already delivered are
// kept — payloads are pure functions of the unit index — so a retry
// only re-runs the remainder. A shard that exhausts max_attempts is
// recorded as a Failed ShardOutcome and the campaign degrades instead
// of hanging or losing the other shards' work.
//
// Progress is checkpointed (campaign/checkpoint) after every shard
// completion with an atomic file replace, so kill -9 on the coordinator
// — or the whole machine going down — costs at most the in-flight
// shards; a resumed campaign re-runs only the missing units and, because
// units are deterministic and the digest folds them in index order,
// produces byte-identical campaign results.
//
// The worker body (`UnitFn`) runs in the forked child: it inherits the
// coordinator's prepared state copy-on-write, and a unit may use
// runner::run_batch threads inside its worker. The coordinator itself
// forks only while single-threaded — a child forked beside live threads
// can inherit a lock one of them held — so run_campaign throws
// std::logic_error instead of forking while runner::live_pool_threads()
// is nonzero: it must not run inside a run_batch task.
//
// procs == 0 selects the in-process lane instead: the missing units run
// on `jobs` run_batch threads of this process, one attempt each, with
// the same progress callback, interrupt flag, resume and checkpoint file
// as the fork lane, so a checkpoint either lane wrote resumes under the
// other. It never forks, so it may run inside a run_batch task. On a
// build without fork() it serves every procs.
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"

namespace mvqoe::campaign {

/// Runs in the worker process (in process: on a pool thread); returns
/// the unit's result payload bytes. Deterministic: the payload must be a
/// pure function of `unit` (plus the campaign configuration captured by
/// the closure). Exceptions escape into a worker exit that the
/// coordinator retries (in process: the unit fails).
using UnitFn = std::function<std::string(std::uint64_t unit)>;

/// Deterministic failure-injection hooks (the campaign counterpart of
/// the fuzzer's --perturb-run): crash or hang a worker at a chosen unit
/// for the first `*_attempts` shard attempts, or SIGKILL the
/// coordinator itself right after its Nth progress checkpoint.
struct TestHooks {
  std::int64_t abort_unit = -1;
  int abort_attempts = 0;     // shard attempts (1-based) that crash
  int abort_signal = SIGKILL;
  std::int64_t hang_unit = -1;
  int hang_attempts = 0;      // shard attempts that hang (heartbeat test)
  int kill_after_checkpoints = 0;  // 0 = disabled
};

struct CampaignOptions {
  /// Concurrent worker processes (< 0: hardware concurrency). 0 runs the
  /// units in this process (the in-process lane), where a unit that
  /// throws is not retried and the worker crash/hang hooks do nothing.
  int procs = 1;
  /// Threads of the in-process lane (runner::resolve_jobs: <= 0 reads
  /// MVQOE_JOBS, then the hardware). The fork lane's workers run their
  /// units one at a time.
  int jobs = 1;
  /// Units per shard — the granularity of crash isolation and retry. The
  /// in-process lane flushes the checkpoint every shard_size landed units.
  std::size_t shard_size = 8;
  /// Total attempts per shard (first run + retries).
  int max_attempts = 3;
  /// A worker silent for this long is declared hung and SIGKILLed.
  int heartbeat_timeout_ms = 120000;
  /// Relaunch delay after a crashed attempt; doubles per further retry.
  int backoff_ms = 100;
  /// Checkpoint file ("" = run without checkpointing).
  std::string state_path;
  /// Opaque app configuration stored in the checkpoint for --resume.
  /// Its digest is the checkpoint's fingerprint: a resume under other
  /// config bytes is rejected loudly.
  std::string config;
  /// Load state_path and run only the units it is missing.
  bool resume = false;
  /// Polled between I/O waits; when it goes nonzero the coordinator
  /// kills its workers, flushes the checkpoint and returns with
  /// interrupted == true (see campaign/signal.hpp). The in-process lane
  /// polls it before each unit and lets the units already running land.
  const volatile std::sig_atomic_t* interrupt = nullptr;
  /// Invoked in the coordinator process as (units_done, total_units)
  /// each time a unit's payload lands — including units restored from a
  /// resumed checkpoint (reported once, up front). Never called from
  /// worker processes; keep it cheap, it runs on the supervision loop
  /// (in process: on the pool threads, one call at a time).
  std::function<void(std::uint64_t, std::uint64_t)> progress;
  TestHooks hooks;
};

struct CampaignResult {
  /// payloads[i] is unit i's result; meaningful iff completed[i].
  std::vector<std::string> payloads;
  std::vector<bool> completed;
  /// Cumulative shard supervision history (including resumed-from runs).
  std::vector<ShardOutcome> shards;
  std::uint64_t units_done = 0;
  std::uint64_t units_from_checkpoint = 0;
  bool complete = false;
  bool interrupted = false;
  /// Worker processes; 0 for the in-process lane.
  int procs_used = 1;
};

/// Execute `total_units` units of `fn` under supervision. Throws on
/// unusable checkpoints (missing/corrupt/fingerprint mismatch), on
/// setup-level failures and (std::logic_error) on a fork while run_batch
/// pool threads are live; per-shard failures degrade into ShardOutcomes
/// (in process: one Failed outcome per unit that threw, naming it).
/// `fn` must be safe to call from several threads when procs == 0 and
/// jobs != 1.
CampaignResult run_campaign(std::uint64_t total_units, const UnitFn& fn,
                            const CampaignOptions& opts);

}  // namespace mvqoe::campaign
