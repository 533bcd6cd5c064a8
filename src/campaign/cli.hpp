// The one command-line layer of the five tools (mvqoe_fuzz,
// mvqoe_campaign, mvqoe_policy, mvqoe_fleet, mvqoe_replay; DESIGN.md
// §13): a flag table per command, strict numbers (runner::parse_number),
// CSV lists and state names, the campaign and sweep-grid flag blocks,
// and the post-run report. A flag takes `--name V` or `--name=V`; an
// unknown flag, a stray argument, a missing value or a malformed value
// is a UsageError naming it, and run_tool turns any error into exit 2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/coordinator.hpp"
#include "campaign/progress.hpp"
#include "campaign/signal.hpp"
#include "campaign/sweep_campaign.hpp"
#include "runner/batch.hpp"

namespace mvqoe::campaign::cli {

class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// The flags one command accepts, each bound to the field it sets.
class Flags {
 public:
  using Setter = std::function<void(std::string_view)>;

  /// A flag with a value; `set` may throw std::invalid_argument.
  Flags& value(std::string name, Setter set);
  Flags& text(std::string name, std::string& out);
  /// A strict decimal in [lo, hi].
  template <typename T>
  Flags& number(std::string name, T& out, T lo, T hi = std::numeric_limits<T>::max()) {
    return value(name, [&out, name, lo, hi](std::string_view v) {
      out = runner::parse_number<T>(v, name, lo, hi);
    });
  }
  /// A switch: `--name` alone sets `out` to `to`.
  Flags& toggle(std::string name, bool& out, bool to = true);

  /// Apply argv[first..argc); throws UsageError.
  void parse(int argc, char** argv, int first) const;

 private:
  struct Flag {
    std::string name;
    bool takes_value;
    Setter set;
  };
  std::vector<Flag> flags_;
};

/// The items of a comma-separated list; an empty item is a UsageError.
std::vector<std::string> split_csv(std::string_view text, std::string_view flag);
/// normal, moderate, low or critical.
mem::PressureLevel parse_state(std::string_view name, std::string_view flag);
const char* state_name(mem::PressureLevel state);

/// The campaign block. A tool sets its defaults with a designated
/// initializer; --procs never goes below the default, so fuzz and fleet
/// keep 0 (in process) and sweep and compare keep 1.
struct CampaignFlags {
  int procs = 1;
  std::size_t shard_size = 1;
  int retries = 3;
  int heartbeat_ms = 120000;
  int backoff_ms = 100;
  std::string state_path{};
  std::string resume_path{};
  /// Deterministic failure injection (tests; see campaign::TestHooks).
  int kill_after_checkpoints = 0;
  std::int64_t abort_unit = -1;
  int abort_attempts = 1;
  bool progress = false;
  /// The first flag given that only the coordinator reads (all but
  /// --procs --state --resume --progress); empty when none was.
  std::string coordinator_flag{};

  /// Register --procs --state --retries --heartbeat-ms
  /// --kill-after-checkpoints --abort-unit --abort-attempts --progress,
  /// and with `sharded` also --shard-size --backoff-ms --resume.
  void add_to(Flags& flags, bool sharded);
  bool coordinated() const { return procs > 0 || !state_path.empty() || !resume_path.empty(); }
  /// Throws a UsageError naming `coordinator_flag` when the coordinator
  /// will not run; `starters` names what would start it.
  void require_coordinator(const char* starters) const;
};

/// One campaign run: the CampaignOptions the block describes (procs 0,
/// the in-process lane, when nothing starts the coordinator), wired to
/// an InterruptGuard and (with --progress) a ProgressMeter counting
/// `units`, and the post-run report printed to `out`.
class CampaignRun {
 public:
  /// Throws UsageError when --state and --resume are both set.
  CampaignRun(const CampaignFlags& flags, const char* units, std::FILE* out = stdout);
  CampaignRun(const CampaignRun&) = delete;
  CampaignRun& operator=(const CampaignRun&) = delete;

  CampaignOptions options;

  /// Close the progress line; "resumed: D/T <units> from checkpoint, E
  /// executed" if the checkpoint supplied units.
  void report_resumed(const CampaignResult& result, std::uint64_t total, const char* units);
  /// "shard <units> [a..b) FAILED after N attempts: why" per failed
  /// shard, "... recovered on attempt N" per shard that needed a retry.
  void report_shards(const CampaignResult& result, const char* units) const;
  /// If interrupted: "interrupted by signal S: D/T <units> done,
  /// checkpoint ..." and the exit status 128+S.
  std::optional<int> report_interrupt(bool interrupted, std::uint64_t done,
                                      std::uint64_t total) const;
  /// All three in the run's own units.
  std::optional<int> report(const CampaignResult& result, std::uint64_t total);

 private:
  InterruptGuard guard_;
  ProgressMeter meter_;
  const char* units_;
  std::FILE* out_;
};

/// --family --duration --organic --states --fps --heights --runs --seed
/// --group-workers, shared by `mvqoe_campaign sweep` and `mvqoe_policy
/// compare`.
void add_sweep_flags(Flags& flags, SweepCampaignSpec& spec);

/// Run a tool's body: an error prints "<tool>: <reason>" (and, for a
/// UsageError, the usage text) and exits 2.
int run_tool(const char* tool, int (*usage)(), const std::function<int()>& body);

}  // namespace mvqoe::campaign::cli
