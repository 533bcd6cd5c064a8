#include "campaign/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "runner/batch.hpp"
#include "snapshot/digest.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <poll.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>
#define MVQOE_CAMPAIGN_FORK 1
#else
#define MVQOE_CAMPAIGN_FORK 0
#endif

namespace mvqoe::campaign {
namespace {

using Clock = std::chrono::steady_clock;

// Worker -> coordinator wire protocol, one byte stream per shard attempt:
//   'R' u64(unit) u64(len) payload   — one completed unit (heartbeat)
//   'D'                              — shard finished cleanly
constexpr char kRecordFrame = 'R';
constexpr char kDoneFrame = 'D';
constexpr std::size_t kRecordHeader = 1 + 8 + 8;

std::uint64_t read_u64le(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

void append_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

#if MVQOE_CAMPAIGN_FORK

/// Write the whole buffer, retrying short writes and EINTR. False on
/// error (e.g. the read end vanished).
bool write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Drain the fd to EOF (blocking). EINTR is retried; any other error
/// truncates the result at the bytes read so far.
std::string read_all(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

#endif  // MVQOE_CAMPAIGN_FORK

/// One contiguous slice of the campaign's missing units, tracked across
/// retry attempts. `pending` shrinks as record frames arrive, so a
/// retried shard only re-runs what the crashed attempt never delivered.
struct Shard {
  std::uint64_t first_unit = 0;
  std::uint64_t unit_count = 0;
  std::vector<std::uint64_t> pending;
  int attempts = 0;
  Clock::time_point eligible_at{};
  std::string last_error;
  bool running = false;
  bool done = false;
  bool failed = false;
};

}  // namespace

CampaignResult run_campaign(std::uint64_t total_units, const UnitFn& fn,
                            const CampaignOptions& opts) {
  if (opts.shard_size == 0) throw std::invalid_argument("campaign: shard_size must be >= 1");
  if (opts.max_attempts < 1) throw std::invalid_argument("campaign: max_attempts must be >= 1");

  CampaignResult result;
  result.procs_used = opts.procs > 0 ? opts.procs : runner::resolve_jobs(0);
  result.payloads.resize(total_units);
  result.completed.assign(total_units, false);

  const std::uint64_t fingerprint = snapshot::digest_bytes(opts.config);
  if (opts.resume) {
    if (opts.state_path.empty()) {
      throw std::invalid_argument("campaign: resume requires a checkpoint path");
    }
    CheckpointState state = read_checkpoint_file(opts.state_path);
    if (state.fingerprint != fingerprint) {
      throw std::runtime_error("campaign: " + opts.state_path +
                               " was recorded under a different campaign configuration "
                               "(fingerprint mismatch) — refusing to resume");
    }
    if (state.total_units != total_units) {
      throw std::runtime_error("campaign: " + opts.state_path + " tracks " +
                               std::to_string(state.total_units) + " units, campaign has " +
                               std::to_string(total_units));
    }
    for (auto& [index, payload] : state.units) {
      result.payloads[index] = std::move(payload);
      result.completed[index] = true;
      ++result.units_from_checkpoint;
    }
    result.shards = std::move(state.shards);
  }

  std::uint64_t units_landed = result.units_from_checkpoint;
  const auto report_progress = [&] {
    if (opts.progress) opts.progress(units_landed, total_units);
  };
  if (opts.resume && units_landed > 0) report_progress();

  // Partition the missing units into contiguous shards.
  std::vector<Shard> shards;
  {
    std::vector<std::uint64_t> missing;
    for (std::uint64_t i = 0; i < total_units; ++i) {
      if (!result.completed[i]) missing.push_back(i);
    }
    const auto now = Clock::now();
    for (std::size_t off = 0; off < missing.size(); off += opts.shard_size) {
      Shard shard;
      const std::size_t end = std::min(off + opts.shard_size, missing.size());
      shard.pending.assign(missing.begin() + static_cast<std::ptrdiff_t>(off),
                           missing.begin() + static_cast<std::ptrdiff_t>(end));
      shard.first_unit = shard.pending.front();
      shard.unit_count = shard.pending.size();
      shard.eligible_at = now;
      shards.push_back(std::move(shard));
    }
  }

  int progress_flushes = 0;
  const auto flush_checkpoint = [&](bool progress) {
    if (opts.state_path.empty()) return;
    CheckpointState state;
    state.fingerprint = fingerprint;
    state.config = opts.config;
    state.total_units = total_units;
    for (std::uint64_t i = 0; i < total_units; ++i) {
      if (result.completed[i]) state.units.emplace_back(i, result.payloads[i]);
    }
    state.shards = result.shards;
    if (!write_checkpoint_file(opts.state_path, state)) {
      throw std::runtime_error("campaign: cannot write checkpoint " + opts.state_path);
    }
#if MVQOE_CAMPAIGN_FORK
    if (progress && opts.hooks.kill_after_checkpoints > 0 &&
        ++progress_flushes == opts.hooks.kill_after_checkpoints) {
      // Test hook: die exactly like a machine crash — no unwinding, no
      // atexit, workers orphaned. The checkpoint just written is what a
      // resume finds.
      ::raise(SIGKILL);
    }
#else
    (void)progress;
    (void)progress_flushes;
#endif
  };

  const auto record_outcome = [&](Shard& shard, ShardStatus status) {
    ShardOutcome outcome;
    outcome.first_unit = shard.first_unit;
    outcome.unit_count = shard.unit_count;
    outcome.attempts = shard.attempts;
    outcome.status = status;
    if (status == ShardStatus::Failed) outcome.error = shard.last_error;
    result.shards.push_back(std::move(outcome));
  };

  // Fresh campaigns establish the checkpoint up front so an early kill
  // still leaves a resumable (empty) state file.
  if (!opts.resume) flush_checkpoint(false);

  const auto interrupted = [&] { return opts.interrupt != nullptr && *opts.interrupt != 0; };
  const auto tally = [&] {
    result.units_done = static_cast<std::uint64_t>(
        std::count(result.completed.begin(), result.completed.end(), true));
    result.complete = result.units_done == total_units;
    return std::move(result);
  };

  // The in-process lane: the missing units on `jobs` run_batch threads,
  // one attempt each, since a unit is a pure function of its index and a
  // retry would only throw again. Units land under one lock, which also
  // serializes the progress calls and the checkpoint flushes.
  if (opts.procs == 0 || !MVQOE_CAMPAIGN_FORK) {
    result.procs_used = 0;
    std::vector<std::uint64_t> missing;
    for (const Shard& shard : shards) {
      missing.insert(missing.end(), shard.pending.begin(), shard.pending.end());
    }
    std::mutex landing;
    std::size_t unflushed = 0;
    const auto batch = runner::run_batch(missing.size(), opts.jobs, [&](std::size_t i) {
      if (interrupted()) return false;
      std::string payload = fn(missing[i]);
      const std::lock_guard<std::mutex> lock(landing);
      result.payloads[missing[i]] = std::move(payload);
      result.completed[missing[i]] = true;
      ++units_landed;
      report_progress();
      if (++unflushed == opts.shard_size) {
        unflushed = 0;
        flush_checkpoint(true);
      }
      return true;
    });
    for (const auto& slot : batch.runs) {
      const std::uint64_t unit = missing[slot.index];
      if (slot.ok) {
        result.interrupted = result.interrupted || !slot.value;
      } else if (result.completed[unit]) {
        // The unit landed; its checkpoint flush or progress call threw.
        throw std::runtime_error(slot.error);
      } else {
        result.shards.push_back({unit, 1, 1, ShardStatus::Failed,
                                 "unit " + std::to_string(unit) + " threw: " + slot.error});
      }
    }
    flush_checkpoint(unflushed > 0);
    return tally();
  }

#if MVQOE_CAMPAIGN_FORK
  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    std::size_t shard = 0;
    std::string buffer;
    Clock::time_point last_activity{};
    bool saw_done = false;
    bool protocol_error = false;
  };
  std::vector<Worker> workers;

  // Deliver one record frame's payload and retire the unit from its shard.
  const auto deliver = [&](Shard& shard, std::uint64_t unit, std::string payload) {
    if (unit >= total_units) return;
    if (!result.completed[unit]) {
      result.payloads[unit] = std::move(payload);
      result.completed[unit] = true;
      ++units_landed;
      report_progress();
    }
    const auto it = std::find(shard.pending.begin(), shard.pending.end(), unit);
    if (it != shard.pending.end()) shard.pending.erase(it);
  };

  const auto parse_frames = [&](Worker& w) {
    Shard& shard = shards[w.shard];
    for (;;) {
      if (w.buffer.empty()) return;
      if (w.buffer[0] == kDoneFrame) {
        w.saw_done = true;
        w.buffer.erase(0, 1);
        continue;
      }
      if (w.buffer[0] != kRecordFrame) {
        w.protocol_error = true;
        return;
      }
      if (w.buffer.size() < kRecordHeader) return;
      const std::uint64_t unit = read_u64le(w.buffer.data() + 1);
      const std::uint64_t len = read_u64le(w.buffer.data() + 9);
      if (w.buffer.size() < kRecordHeader + len) return;
      deliver(shard, unit, w.buffer.substr(kRecordHeader, static_cast<std::size_t>(len)));
      w.buffer.erase(0, kRecordHeader + static_cast<std::size_t>(len));
    }
  };

  // The worker body: run the shard's pending units in order, stream each
  // payload back, then announce completion. Runs in the forked child —
  // it must reach the pipe or _exit, never unwind into the coordinator.
  const auto run_worker = [&](const std::vector<std::uint64_t>& units, int attempt,
                              int fd) -> void {
    for (const std::uint64_t unit : units) {
      if (opts.hooks.abort_unit >= 0 &&
          static_cast<std::int64_t>(unit) == opts.hooks.abort_unit &&
          attempt <= opts.hooks.abort_attempts) {
        ::raise(opts.hooks.abort_signal);
        ::_exit(86);  // reached only if the signal was ignorable
      }
      if (opts.hooks.hang_unit >= 0 && static_cast<std::int64_t>(unit) == opts.hooks.hang_unit &&
          attempt <= opts.hooks.hang_attempts) {
        for (;;) {
          struct timespec ts = {0, 50 * 1000 * 1000};
          ::nanosleep(&ts, nullptr);
        }
      }
      std::string payload;
      try {
        payload = fn(unit);
      } catch (...) {
        ::_exit(3);  // unit threw; the coordinator retries the shard
      }
      std::string frame;
      frame.reserve(kRecordHeader + payload.size());
      frame.push_back(kRecordFrame);
      append_u64le(frame, unit);
      append_u64le(frame, payload.size());
      frame += payload;
      if (!write_all(fd, frame)) ::_exit(4);  // coordinator gone
    }
    const char done = kDoneFrame;
    write_all(fd, std::string_view(&done, 1));
    ::close(fd);
    ::_exit(0);
  };

  const auto attempt_failed = [&](Shard& shard, std::string error) {
    shard.running = false;
    shard.last_error = std::move(error);
    if (shard.pending.empty()) {
      // Every unit arrived before the attempt died (e.g. killed between
      // the last record and DONE) — the shard's work is complete.
      shard.done = true;
      record_outcome(shard, ShardStatus::Completed);
      flush_checkpoint(true);
      return;
    }
    if (shard.attempts >= opts.max_attempts) {
      shard.failed = true;
      record_outcome(shard, ShardStatus::Failed);
      flush_checkpoint(true);
      return;
    }
    const int exponent = std::min(shard.attempts - 1, 16);
    shard.eligible_at =
        Clock::now() + std::chrono::milliseconds(static_cast<long long>(opts.backoff_ms)
                                                 << exponent);
  };

  // Reap one worker whose pipe hit EOF (exit or kill), deciding shard fate.
  const auto worker_finished = [&](Worker& w) {
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    ::close(w.fd);
    Shard& shard = shards[w.shard];
    shard.running = false;
    if (shard.pending.empty()) {
      shard.done = true;
      record_outcome(shard, ShardStatus::Completed);
      flush_checkpoint(true);
      return;
    }
    std::string error;
    if (w.protocol_error) {
      error = "worker emitted a malformed frame";
    } else if (WIFSIGNALED(status)) {
      error = "worker killed by signal " + std::to_string(WTERMSIG(status));
    } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
      error = "worker exited with code " + std::to_string(WEXITSTATUS(status)) +
              " before completing its shard";
    } else {
      error = "worker closed its pipe with " + std::to_string(shard.pending.size()) +
              " units still pending";
    }
    attempt_failed(shard, std::move(error));
  };

  const auto kill_all_workers = [&] {
    for (Worker& w : workers) {
      ::kill(w.pid, SIGKILL);
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      ::close(w.fd);
    }
    workers.clear();
  };

  const auto shards_open = [&] {
    return std::any_of(shards.begin(), shards.end(),
                       [](const Shard& s) { return !s.done && !s.failed; });
  };

  try {
    while (shards_open() || !workers.empty()) {
      if (interrupted()) {
        kill_all_workers();
        result.interrupted = true;
        flush_checkpoint(false);
        break;
      }

      // Launch eligible shards into free worker slots.
      const auto now = Clock::now();
      for (std::size_t s = 0; s < shards.size(); ++s) {
        if (workers.size() >= static_cast<std::size_t>(result.procs_used)) break;
        Shard& shard = shards[s];
        if (shard.done || shard.failed || shard.running || shard.eligible_at > now) continue;
        // fork() only while single-threaded: a child forked beside live
        // threads can inherit a lock one of them held and deadlock.
        if (const int live = runner::live_pool_threads(); live != 0) {
          throw std::logic_error(
              "campaign: refusing to fork() with " + std::to_string(live) +
              " run_batch pool thread(s) live — the coordinator forks only while "
              "single-threaded, so run_campaign must not run inside a run_batch task");
        }
        int fds[2];
        if (::pipe(fds) != 0) {
          ++shard.attempts;
          attempt_failed(shard, "pipe() failed");
          continue;
        }
        ++shard.attempts;
        const pid_t pid = ::fork();
        if (pid < 0) {
          ::close(fds[0]);
          ::close(fds[1]);
          attempt_failed(shard, "fork() failed");
          continue;
        }
        if (pid == 0) {
          ::close(fds[0]);
          for (const Worker& other : workers) ::close(other.fd);
          run_worker(shard.pending, shard.attempts, fds[1]);
          ::_exit(0);  // unreachable
        }
        ::close(fds[1]);
        Worker w;
        w.pid = pid;
        w.fd = fds[0];
        w.shard = s;
        w.last_activity = Clock::now();
        workers.push_back(std::move(w));
        shard.running = true;
      }

      if (workers.empty()) {
        if (!shards_open()) break;
        // Every open shard is backing off — sleep a tick.
        struct timespec ts = {0, 10 * 1000 * 1000};
        ::nanosleep(&ts, nullptr);
        continue;
      }

      std::vector<struct pollfd> fds(workers.size());
      for (std::size_t i = 0; i < workers.size(); ++i) {
        fds[i] = {workers[i].fd, POLLIN, 0};
      }
      const int rc = ::poll(fds.data(), fds.size(), 50);
      if (rc < 0 && errno != EINTR) {
        kill_all_workers();
        throw std::runtime_error("campaign: poll() failed");
      }

      const auto after = Clock::now();
      std::vector<std::size_t> finished;
      for (std::size_t i = 0; i < workers.size(); ++i) {
        Worker& w = workers[i];
        bool eof = false;
        if (rc > 0 && (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          char buf[65536];
          const ssize_t n = ::read(w.fd, buf, sizeof(buf));
          if (n > 0) {
            w.buffer.append(buf, static_cast<std::size_t>(n));
            w.last_activity = after;
            parse_frames(w);
            if (w.protocol_error) {
              ::kill(w.pid, SIGKILL);
              eof = true;  // reap below; remaining pipe data is garbage
            }
          } else if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
            eof = true;
          }
        }
        if (!eof &&
            after - w.last_activity > std::chrono::milliseconds(opts.heartbeat_timeout_ms)) {
          // Hung worker: SIGKILL it, then salvage whatever frames it
          // managed to send before stalling.
          ::kill(w.pid, SIGKILL);
          w.buffer += read_all(w.fd);
          parse_frames(w);
          int status = 0;
          ::waitpid(w.pid, &status, 0);
          ::close(w.fd);
          attempt_failed(shards[w.shard],
                         "heartbeat timeout: worker silent for over " +
                             std::to_string(opts.heartbeat_timeout_ms) + "ms (SIGKILLed)");
          finished.push_back(i);
          continue;
        }
        if (eof) {
          w.buffer += read_all(w.fd);  // drain anything past the last poll
          parse_frames(w);
          worker_finished(w);
          finished.push_back(i);
        }
      }
      for (auto it = finished.rbegin(); it != finished.rend(); ++it) {
        workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(*it));
      }
    }
  } catch (...) {
    kill_all_workers();
    throw;
  }
#endif
  return tally();
}

}  // namespace mvqoe::campaign
