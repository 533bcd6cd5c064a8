#include "campaign/cli.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace mvqoe::campaign::cli {

namespace {

constexpr std::array<const char*, 4> kStateNames = {"normal", "moderate", "low", "critical"};

unsigned long long ull(std::uint64_t value) { return static_cast<unsigned long long>(value); }

std::vector<int> positive_ints(std::string_view text, std::string_view flag) {
  std::vector<int> values;
  for (const std::string& item : split_csv(text, flag)) {
    values.push_back(runner::parse_number<int>(item, flag, 1));
  }
  return values;
}

}  // namespace

Flags& Flags::value(std::string name, Setter set) {
  flags_.push_back({std::move(name), true, std::move(set)});
  return *this;
}

Flags& Flags::text(std::string name, std::string& out) {
  return value(std::move(name), [&out](std::string_view v) { out = v; });
}

Flags& Flags::toggle(std::string name, bool& out, bool to) {
  flags_.push_back({std::move(name), false, [&out, to](std::string_view) { out = to; }});
  return *this;
}

void Flags::parse(int argc, char** argv, int first) const {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const auto flag =
        std::find_if(flags_.begin(), flags_.end(), [&](const Flag& f) { return f.name == name; });
    if (flag == flags_.end()) throw UsageError("unknown argument '" + std::string(arg) + "'");
    std::string_view value;
    if (eq != std::string_view::npos) {
      if (!flag->takes_value) throw UsageError(flag->name + " takes no value");
      value = arg.substr(eq + 1);
    } else if (flag->takes_value) {
      if (i + 1 >= argc) throw UsageError(flag->name + " needs a value");
      value = argv[++i];
    }
    try {
      flag->set(value);
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
  }
}

std::vector<std::string> split_csv(std::string_view text, std::string_view flag) {
  std::vector<std::string> items;
  for (std::size_t start = 0;; ) {
    const std::size_t comma = text.find(',', start);
    items.emplace_back(text.substr(start, comma - start));  // to the end when comma is npos
    if (items.back().empty()) {
      throw UsageError(std::string(flag) + " has an empty item in '" + std::string(text) + "'");
    }
    if (comma == std::string_view::npos) return items;
    start = comma + 1;
  }
}

mem::PressureLevel parse_state(std::string_view name, std::string_view flag) {
  const auto it = std::find(kStateNames.begin(), kStateNames.end(), name);
  if (it == kStateNames.end()) {
    throw UsageError(std::string(flag) + " must be normal, moderate, low or critical, got '" +
                     std::string(name) + "'");
  }
  return static_cast<mem::PressureLevel>(it - kStateNames.begin());
}

const char* state_name(mem::PressureLevel state) {
  return kStateNames.at(static_cast<std::size_t>(state));
}

void CampaignFlags::add_to(Flags& flags, bool sharded) {
  // Flags only the coordinator reads: the first one given is remembered
  // so an in-process run can refuse it.
  const auto coordinator_number = [this, &flags](const char* name, auto& out, auto lo) {
    flags.value(name, [this, name, &out, lo](std::string_view v) {
      out = runner::parse_number<decltype(lo)>(v, name, lo);
      if (coordinator_flag.empty()) coordinator_flag = name;
    });
  };
  flags.number("--procs", procs, procs).text("--state", state_path).toggle("--progress", progress);
  coordinator_number("--retries", retries, 1);
  coordinator_number("--heartbeat-ms", heartbeat_ms, 1);
  coordinator_number("--kill-after-checkpoints", kill_after_checkpoints, 0);
  coordinator_number("--abort-unit", abort_unit, std::int64_t{0});
  coordinator_number("--abort-attempts", abort_attempts, 0);
  if (sharded) {
    coordinator_number("--shard-size", shard_size, std::size_t{1});
    coordinator_number("--backoff-ms", backoff_ms, 0);
    flags.text("--resume", resume_path);
  }
}

void CampaignFlags::require_coordinator(const char* starters) const {
  if (!coordinated() && !coordinator_flag.empty()) {
    throw UsageError(coordinator_flag + " only applies under the coordinator: add " + starters);
  }
}

CampaignRun::CampaignRun(const CampaignFlags& flags, const char* units, std::FILE* out)
    : meter_(units), units_(units), out_(out) {
  if (!flags.state_path.empty() && !flags.resume_path.empty()) {
    throw UsageError("--state and --resume cannot be combined");
  }
  options.procs = flags.coordinated() ? std::max(flags.procs, 1) : 0;
  options.shard_size = flags.shard_size;
  options.max_attempts = flags.retries;
  options.heartbeat_timeout_ms = flags.heartbeat_ms;
  options.backoff_ms = flags.backoff_ms;
  options.resume = !flags.resume_path.empty();
  options.state_path = options.resume ? flags.resume_path : flags.state_path;
  options.interrupt = guard_.flag();
  options.hooks.abort_unit = flags.abort_unit;
  options.hooks.abort_attempts = flags.abort_attempts;
  options.hooks.kill_after_checkpoints = flags.kill_after_checkpoints;
  if (flags.progress) {
    options.progress = [this](std::uint64_t done, std::uint64_t total) {
      meter_.update(done, total);
    };
  }
}

void CampaignRun::report_resumed(const CampaignResult& result, std::uint64_t total,
                                 const char* units) {
  meter_.finish();
  if (result.units_from_checkpoint == 0) return;
  std::fprintf(out_, "resumed: %llu/%llu %s from checkpoint, %llu executed\n",
               ull(result.units_from_checkpoint), ull(total), units,
               ull(result.units_done - result.units_from_checkpoint));
}

void CampaignRun::report_shards(const CampaignResult& result, const char* units) const {
  for (const ShardOutcome& shard : result.shards) {
    const unsigned long long first = ull(shard.first_unit);
    const unsigned long long end = ull(shard.first_unit + shard.unit_count);
    if (shard.status == ShardStatus::Failed) {
      std::fprintf(out_, "shard %s [%llu..%llu) FAILED after %d attempts: %s\n", units, first,
                   end, shard.attempts, shard.error.c_str());
    } else if (shard.attempts > 1) {
      std::fprintf(out_, "shard %s [%llu..%llu) recovered on attempt %d\n", units, first, end,
                   shard.attempts);
    }
  }
}

std::optional<int> CampaignRun::report_interrupt(bool interrupted, std::uint64_t done,
                                                 std::uint64_t total) const {
  if (!interrupted) return std::nullopt;
  const std::string checkpoint = options.state_path.empty()
                                     ? "disabled (--state not set)"
                                     : "flushed to " + options.state_path;
  std::fprintf(out_, "interrupted by signal %d: %llu/%llu %s done, checkpoint %s\n",
               guard_.signal_number(), ull(done), ull(total), units_, checkpoint.c_str());
  std::fflush(out_);
  return guard_.exit_code();
}

std::optional<int> CampaignRun::report(const CampaignResult& result, std::uint64_t total) {
  report_resumed(result, total, units_);
  report_shards(result, units_);
  return report_interrupt(result.interrupted, result.units_done, total);
}

void add_sweep_flags(Flags& flags, SweepCampaignSpec& spec) {
  flags.text("--family", spec.family)
      .number("--duration", spec.duration_s, 1)
      .number("--organic", spec.organic_apps, 0)
      .value("--states",
             [&spec](std::string_view v) {
               spec.states.clear();
               for (const std::string& name : split_csv(v, "--states")) {
                 spec.states.push_back(parse_state(name, "--states"));
               }
             })
      .value("--fps", [&spec](std::string_view v) { spec.fps = positive_ints(v, "--fps"); })
      .value("--heights",
             [&spec](std::string_view v) { spec.heights = positive_ints(v, "--heights"); })
      .number("--runs", spec.runs, 1)
      .number("--seed", spec.seed, std::uint64_t{0})
      .number("--group-workers", spec.group_workers, 1);
}

int run_tool(const char* tool, int (*usage)(), const std::function<int()>& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return dynamic_cast<const UsageError*>(&e) != nullptr ? usage() : 2;
  }
}

}  // namespace mvqoe::campaign::cli
