#include "runner/scenario_batch.hpp"

#include "stats/rng.hpp"

namespace mvqoe::runner {

std::uint64_t contention_cell_seed(std::uint64_t base, int sessions,
                                   mem::PressureLevel state) noexcept {
  std::uint64_t seed = stats::derive_seed(base, 0x434F4E54ULL /* "CONT" */);
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(sessions));
  seed = stats::derive_seed(seed, static_cast<std::uint64_t>(state) + 1);
  return seed;
}

std::uint64_t contention_session_seed(std::uint64_t run_seed, std::size_t session) noexcept {
  std::uint64_t seed = stats::derive_seed(run_seed, 0x53455353ULL /* "SESS" */);
  return stats::derive_seed(seed, static_cast<std::uint64_t>(session) + 1);
}

namespace {

/// Build the n-session scenario for one contention run: n clones of the
/// proto's first video workload, labelled video<k>, each on its own
/// derived video stream.
scenario::ScenarioSpec contention_scenario(const scenario::ScenarioSpec& proto, int sessions,
                                           mem::PressureLevel state, std::uint64_t run_seed) {
  scenario::ScenarioSpec spec = proto;
  const scenario::VideoWorkloadSpec base_video = scenario::video_spec(proto);
  spec.state = state;
  spec.seed = run_seed;
  spec.workloads.clear();
  for (int k = 0; k < sessions; ++k) {
    scenario::VideoWorkloadSpec video = base_video;
    video.label = base_video.label + std::to_string(k);
    video.seed = contention_session_seed(run_seed, static_cast<std::size_t>(k));
    spec.workloads.emplace_back(std::move(video));
  }
  return spec;
}

}  // namespace

std::vector<ContentionCellResult> run_contention_grid(
    const scenario::ScenarioSpec& proto, const std::vector<int>& session_counts,
    const std::vector<mem::PressureLevel>& states, int runs, int jobs, std::uint64_t base_seed) {
  std::vector<ContentionCellResult> cells;
  if (runs <= 0) return cells;
  for (const int sessions : session_counts) {
    for (const auto state : states) {
      ContentionCellResult cell;
      cell.sessions = sessions;
      cell.state = state;
      cell.cell_seed = contention_cell_seed(base_seed, sessions, state);
      cells.push_back(cell);
    }
  }

  struct RunReport {
    std::vector<std::pair<std::string, qoe::RunOutcome>> sessions;
  };

  const std::size_t total = cells.size() * static_cast<std::size_t>(runs);
  auto result = run_batch(total, jobs, [&](std::size_t task) {
    const ContentionCellResult& cell = cells[task / static_cast<std::size_t>(runs)];
    const std::size_t run_index = task % static_cast<std::size_t>(runs);
    const std::uint64_t run_seed = stats::derive_seed(cell.cell_seed, run_index + 1);
    const scenario::ScenarioResult run_result =
        scenario::run_scenario(contention_scenario(proto, cell.sessions, cell.state, run_seed));
    RunReport report;
    for (const scenario::SessionReport& session : run_result.sessions) {
      report.sessions.emplace_back(session.label, session.result.outcome);
    }
    return report;
  });

  for (std::size_t task = 0; task < result.runs.size(); ++task) {
    ContentionCellResult& cell = cells[task / static_cast<std::size_t>(runs)];
    const auto& slot = result.runs[task];
    if (slot.ok) {
      for (const auto& [label, outcome] : slot.value.sessions) {
        cell.breakdown.add(label, outcome);
      }
    } else {
      ++cell.failures;
    }
  }
  return cells;
}

std::string contention_json(std::string_view bench_name,
                            const std::vector<ContentionCellResult>& cells, int runs,
                            int jobs_used, std::uint64_t base_seed) {
  JsonWriter w;
  w.begin_object()
      .field("bench", bench_name)
      .field("base_seed", base_seed)
      .field("runs_per_cell", runs)
      .field("jobs", jobs_used);
  w.key("cells").begin_array();
  for (const ContentionCellResult& cell : cells) {
    w.begin_object()
        .field("sessions", cell.sessions)
        .field("state", mem::to_string(cell.state))
        .field("cell_seed", cell.cell_seed)
        .field("failures", cell.failures);
    w.key("per_session").begin_array();
    for (const auto& [label, aggregate] : cell.breakdown.entries()) {
      w.begin_object()
          .field("label", label)
          .field("crash_rate_percent", aggregate.crash_rate_percent())
          .field("relaunch_rate_percent", aggregate.relaunch_rate_percent());
      w.key("drop_rate");
      write_mean_ci(w, aggregate.drop_rate());
      w.key("mean_pss_mb");
      write_mean_ci(w, aggregate.mean_pss_mb());
      w.key("runs").begin_array();
      for (const qoe::RunOutcome& outcome : aggregate.outcomes()) {
        write_run_outcome(w, outcome);
      }
      w.end_array().end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().end_object();
  return w.str();
}

}  // namespace mvqoe::runner
