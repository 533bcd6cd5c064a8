// Tests for the thread-pool batch experiment runner: the determinism
// contract (parallel == serial, byte for byte, in run-index order under
// any completion schedule), structured per-run failure isolation, the
// sweep-seed derivation regression (the old additive bench formula let
// distinct cells alias to one seed), and the JSON emission layer.
#include <gtest/gtest.h>

#include <chrono>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "runner/batch.hpp"
#include "runner/json_writer.hpp"
#include "runner/video_batch.hpp"
#include "stats/rng.hpp"

namespace mvqoe::runner {
namespace {

/// The message of the std::invalid_argument `fn` throws ("" if none).
template <typename Fn>
std::string invalid_argument_of(Fn fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ResolveJobs, ExplicitRequestWins) {
  EXPECT_EQ(resolve_jobs(3), 3);
  EXPECT_EQ(resolve_jobs(1), 1);
}

TEST(ResolveJobs, EnvironmentFallback) {
  ::setenv("MVQOE_JOBS", "7", 1);
  EXPECT_EQ(resolve_jobs(0), 7);
  EXPECT_EQ(resolve_jobs(2), 2);  // explicit still wins
  // Malformed values fail loudly, naming the variable, instead of
  // falling back to the hardware count.
  for (const char* bad : {"", "abc", "4x", " 4", "0", "-2", "99999999999", "0x10", "010"}) {
    ::setenv("MVQOE_JOBS", bad, 1);
    EXPECT_NE(invalid_argument_of([] { resolve_jobs(0); }).find("MVQOE_JOBS"), std::string::npos)
        << "MVQOE_JOBS='" << bad << "'";
    EXPECT_EQ(resolve_jobs(2), 2);  // explicit still wins
  }
  ::unsetenv("MVQOE_JOBS");
  EXPECT_GE(resolve_jobs(0), 1);  // hardware fallback is always >= 1

  // The bench knobs (MVQOE_RUNS, MVQOE_DURATION_S, MVQOE_STUDY_SCALE) go
  // through the same parser.
  EXPECT_EQ(parse_positive<int>("3", "MVQOE_RUNS"), 3);
  EXPECT_DOUBLE_EQ(parse_positive<double>("0.25", "MVQOE_STUDY_SCALE"), 0.25);
  for (const char* bad : {"", "0.1x", "0", "-0.5", "inf", "nan", "1e999"}) {
    EXPECT_NE(invalid_argument_of([bad] { parse_positive<double>(bad, "MVQOE_STUDY_SCALE"); })
                  .find("MVQOE_STUDY_SCALE"),
              std::string::npos)
        << "MVQOE_STUDY_SCALE='" << bad << "'";
  }

  // Seeds: unsigned, zero allowed, decimal only — no base-0 spelling an
  // older strtoull command line took (0x10, 010) changes meaning.
  EXPECT_EQ(parse_number<std::uint64_t>("0", "--seed", 0), 0u);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615", "--seed", 0),
            18446744073709551615ull);
  for (const char* bad : {"-1", "1e6", "0x10", "010", "12a", "", "18446744073709551616"}) {
    EXPECT_NE(invalid_argument_of([bad] { parse_number<std::uint64_t>(bad, "--seed", 0); })
                  .find("--seed"),
              std::string::npos)
        << "--seed '" << bad << "'";
  }
  // Per-flag bounds are inclusive at both ends.
  EXPECT_EQ(parse_number<int>("0", "pressure", 0, 3), 0);
  EXPECT_EQ(parse_number<int>("3", "pressure", 0, 3), 3);
  EXPECT_EQ(parse_number<std::int64_t>("-1", "--offset", -1, 1), -1);
  for (const char* bad : {"-1", "4", "03"}) {
    EXPECT_NE(invalid_argument_of([bad] { parse_number<int>(bad, "pressure", 0, 3); })
                  .find("pressure must be a decimal integer in [0, 3]"),
              std::string::npos)
        << "pressure '" << bad << "'";
  }
}

TEST(ResolveJobs, ArgvParsing) {
  const char* argv1[] = {"bench", "--jobs", "4"};
  EXPECT_EQ(jobs_from_args(3, const_cast<char**>(argv1)), 4);
  const char* argv2[] = {"bench", "--jobs=6"};
  EXPECT_EQ(jobs_from_args(2, const_cast<char**>(argv2)), 6);
  const char* argv3[] = {"bench", "positional"};
  EXPECT_GE(jobs_from_args(2, const_cast<char**>(argv3)), 1);

  // Malformed values fail loudly, naming the flag, in both spellings.
  for (const char* bad : {"", "abc", "4x", "0", "-1", "1e3", "99999999999", "12a", "010"}) {
    const char* split[] = {"bench", "--jobs", bad};
    EXPECT_NE(invalid_argument_of([&] { jobs_from_args(3, const_cast<char**>(split)); })
                  .find("--jobs"),
              std::string::npos)
        << "--jobs '" << bad << "'";
    const std::string joined = std::string("--jobs=") + bad;
    const char* equals[] = {"bench", joined.c_str()};
    EXPECT_NE(invalid_argument_of([&] { jobs_from_args(2, const_cast<char**>(equals)); })
                  .find("--jobs"),
              std::string::npos)
        << joined;
  }
  const char* missing[] = {"bench", "--jobs"};
  EXPECT_NE(
      invalid_argument_of([&] { jobs_from_args(2, const_cast<char**>(missing)); }).find("--jobs"),
      std::string::npos);
}

TEST(RunBatch, ResultsInIndexOrder) {
  const auto batch = run_batch(std::size_t{32}, 4, [](std::size_t i) { return i * i; });
  EXPECT_EQ(batch.failures, 0u);
  ASSERT_EQ(batch.runs.size(), 32u);
  for (std::size_t i = 0; i < batch.runs.size(); ++i) {
    EXPECT_TRUE(batch.runs[i].ok);
    EXPECT_EQ(batch.runs[i].index, i);
    EXPECT_EQ(batch.runs[i].value, i * i);
  }
}

// Adversarial completion schedule: early runs sleep longest, so workers
// finish in roughly reverse index order. The reduction must still come
// back in index order with values identical to the serial pass.
TEST(RunBatch, DeterministicUnderAdversarialSlowWorkerSchedule) {
  auto task = [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds((16 - i) * 3));
    stats::Rng rng(stats::derive_seed(99, i + 1));
    return rng.next();
  };
  const auto serial = run_batch(std::size_t{16}, 1, task);
  const auto parallel = run_batch(std::size_t{16}, 8, task);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  EXPECT_EQ(serial.jobs_used, 1);
  EXPECT_GT(parallel.jobs_used, 1);
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    EXPECT_EQ(parallel.runs[i].index, i);
    EXPECT_EQ(serial.runs[i].value, parallel.runs[i].value) << "run " << i;
  }
}

TEST(RunBatch, ExceptionInOneRunIsIsolated) {
  const auto batch = run_batch(std::size_t{8}, 4, [](std::size_t i) -> int {
    if (i == 3) throw std::runtime_error("injected failure in run 3");
    return static_cast<int>(i) + 1;
  });
  EXPECT_EQ(batch.failures, 1u);
  EXPECT_FALSE(batch.all_ok());
  for (std::size_t i = 0; i < batch.runs.size(); ++i) {
    if (i == 3) {
      EXPECT_FALSE(batch.runs[i].ok);
      EXPECT_EQ(batch.runs[i].error, "injected failure in run 3");
    } else {
      EXPECT_TRUE(batch.runs[i].ok);
      EXPECT_EQ(batch.runs[i].value, static_cast<int>(i) + 1);
    }
  }
}

TEST(RunBatch, NonStdExceptionIsStructured) {
  const auto batch = run_batch(std::size_t{2}, 2, [](std::size_t i) -> int {
    if (i == 1) throw 42;  // not derived from std::exception
    return 0;
  });
  EXPECT_EQ(batch.failures, 1u);
  EXPECT_EQ(batch.runs[1].error, "unknown exception");
}

TEST(RunBatch, EmptyBatch) {
  const auto batch = run_batch(std::size_t{0}, 4, [](std::size_t) { return 1; });
  EXPECT_TRUE(batch.runs.empty());
  EXPECT_TRUE(batch.all_ok());
}

// Regression for the old bench seeding (`1000 + height + fps + state*7`):
// distinct (height, fps, state) tuples alias to the same seed — e.g.
// (240, 67, Normal) and (240, 60, Moderate) — correlating cells that the
// paper's methodology requires to be independent. The derive_seed-based
// cell seeds must be pairwise distinct across a grid far larger than any
// bench uses.
TEST(SweepSeeds, OldAdditiveFormulaCollides) {
  const auto old_formula = [](int height, int fps, int state) {
    return 1000 + height + fps + state * 7;
  };
  EXPECT_EQ(old_formula(240, 67, 0), old_formula(240, 60, 1));
  EXPECT_EQ(old_formula(727, 30, 0), old_formula(720, 30, 1));
  EXPECT_NE(sweep_cell_seed(1000, 240, 67, static_cast<mem::PressureLevel>(0)),
            sweep_cell_seed(1000, 240, 60, static_cast<mem::PressureLevel>(1)));
  EXPECT_NE(sweep_cell_seed(1000, 727, 30, static_cast<mem::PressureLevel>(0)),
            sweep_cell_seed(1000, 720, 30, static_cast<mem::PressureLevel>(1)));
}

TEST(SweepSeeds, PairwiseDistinctAcrossBroadGrid) {
  std::unordered_set<std::uint64_t> seeds;
  std::size_t cells = 0;
  for (int height = 144; height <= 2160; height += 8) {
    for (int fps = 24; fps <= 120; fps += 4) {
      for (int state = 0; state < 4; ++state) {
        seeds.insert(sweep_cell_seed(1000, height, fps, static_cast<mem::PressureLevel>(state)));
        ++cells;
      }
    }
  }
  EXPECT_EQ(seeds.size(), cells);
  // Per-run seeds inside a cell must not collide with other cells' runs.
  std::unordered_set<std::uint64_t> run_seeds;
  std::size_t runs = 0;
  for (const int height : {240, 360, 480, 720, 1080}) {
    for (const int fps : {30, 60}) {
      for (int state = 0; state < 4; ++state) {
        const std::uint64_t cell =
            sweep_cell_seed(1000, height, fps, static_cast<mem::PressureLevel>(state));
        for (std::uint64_t run = 1; run <= 10; ++run) {
          run_seeds.insert(stats::derive_seed(cell, run));
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(run_seeds.size(), runs);
}

TEST(SweepSeeds, DistinctAcrossBaseSeeds) {
  EXPECT_NE(sweep_cell_seed(1, 720, 30, mem::PressureLevel::Normal),
            sweep_cell_seed(2, 720, 30, mem::PressureLevel::Normal));
}

TEST(JsonWriter, ObjectsArraysAndEscapes) {
  JsonWriter w;
  w.begin_object()
      .field("name", "a\"b\\c\nd")
      .field("count", 3)
      .field("ratio", 0.5)
      .field("flag", true);
  w.key("xs").begin_array().value(1).value(2).value(3).end_array();
  w.key("nested").begin_object().field("inner", 7).end_object();
  w.key("nothing").null();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"a\\\"b\\\\c\\nd\",\"count\":3,\"ratio\":0.5,\"flag\":true,"
            "\"xs\":[1,2,3],\"nested\":{\"inner\":7},\"nothing\":null}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array().value(std::nan("")).value(1.5).end_array();
  EXPECT_EQ(w.str(), "[null,1.5]");
}

TEST(JsonWriter, DoublesRoundTrip) {
  JsonWriter w;
  const double value = 0.12345678901234567;
  w.begin_array().value(value).end_array();
  const std::string s = w.str();
  EXPECT_EQ(std::strtod(s.c_str() + 1, nullptr), value);
}

TEST(JsonWriter, LocaleIndependentDoubles) {
  // A decimal-comma locale must not leak into the JSON: "[1,5]" instead
  // of "[1.5]" silently changes both the schema and the bytes the
  // determinism contract (DESIGN.md §9) and golden-digest tests hash.
  const std::string reference = [] {
    JsonWriter w;
    w.begin_array().value(1.5).value(0.12345678901234567).value(1e-9).value(-2.75e20).end_array();
    return w.str();
  }();
  EXPECT_NE(reference.find("1.5"), std::string::npos);

  const char* previous = std::setlocale(LC_ALL, nullptr);
  const std::string saved = previous != nullptr ? previous : "C";
  const char* de = std::setlocale(LC_ALL, "de_DE.UTF-8");
  if (de == nullptr) de = std::setlocale(LC_ALL, "de_DE.utf8");
  if (de == nullptr) de = std::setlocale(LC_NUMERIC, "de_DE");
  if (de == nullptr) {
    GTEST_SKIP() << "no de_DE-style locale available on this system";
  }
  // Only meaningful if the locale really uses a decimal comma.
  char probe[32];
  std::snprintf(probe, sizeof(probe), "%.1f", 1.5);
  const bool comma_locale = std::string(probe).find(',') != std::string::npos;

  JsonWriter w;
  w.begin_array().value(1.5).value(0.12345678901234567).value(1e-9).value(-2.75e20).end_array();
  const std::string under_locale = w.str();
  std::setlocale(LC_ALL, saved.c_str());

  if (!comma_locale) GTEST_SKIP() << "locale accepted but uses a decimal point";
  EXPECT_EQ(under_locale, reference);
  EXPECT_EQ(under_locale.find(','), reference.find(','));  // array commas only
}

// Full-precision serialization of every per-run result: the byte string
// the parallel path must reproduce exactly.
std::string dump_runs(const std::vector<RunSlot<core::VideoRunResult>>& runs) {
  JsonWriter w;
  w.begin_array();
  for (const auto& slot : runs) {
    w.begin_object()
        .field("index", slot.index)
        .field("ok", slot.ok)
        .field("frames_presented", slot.value.metrics.frames_presented)
        .field("frames_dropped", slot.value.metrics.frames_dropped)
        .field("rebuffers", slot.value.metrics.rebuffer_events)
        .field("status", core::to_string(slot.value.status));
    w.key("outcome");
    write_run_outcome(w, slot.value.outcome);
    w.end_object();
  }
  w.end_array();
  return w.str();
}

scenario::ScenarioSpec small_video_spec() {
  return scenario::single_video("fig11", 480, 30, 6, mem::PressureLevel::Normal, 77);
}

TEST(VideoBatch, ParallelMatchesSerialByteIdentical) {
  const scenario::ScenarioSpec spec = small_video_spec();
  const auto serial = run_video_batch(spec, 4, 1);
  const auto parallel = run_video_batch(spec, 4, 4);
  EXPECT_EQ(serial.jobs_used, 1);
  EXPECT_EQ(serial.failures, 0u);
  EXPECT_EQ(parallel.failures, 0u);
  EXPECT_EQ(dump_runs(serial.runs), dump_runs(parallel.runs));
}

// Run i of a batch is exactly run_scenario of the spec with its world and
// first video stream seeded by hand with derive_seed(seed, i + 1).
TEST(VideoBatch, RunMatchesHandSeededScenario) {
  const scenario::ScenarioSpec spec = small_video_spec();
  const auto batch = run_video_batch(spec, 3, 4);
  std::vector<RunSlot<core::VideoRunResult>> expected(3);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    scenario::ScenarioSpec seeded = spec;
    seeded.seed = stats::derive_seed(spec.seed, i + 1);
    scenario::video_spec(seeded).seed = seeded.seed;
    expected[i] = {i, true, scenario::run_scenario(seeded).sessions.at(0).result, ""};
  }
  EXPECT_EQ(batch.aggregate.runs(), expected.size());
  EXPECT_EQ(dump_runs(batch.runs), dump_runs(expected));
}

TEST(VideoBatch, SweepGridParallelMatchesSerial) {
  const scenario::ScenarioSpec proto = small_video_spec();
  const std::vector<mem::PressureLevel> states = {mem::PressureLevel::Normal};
  const std::vector<int> fps = {30};
  const std::vector<int> heights = {360, 480};
  const auto serial = run_sweep_grid(proto, states, fps, heights, 2, 1, 1000);
  const auto parallel = run_sweep_grid(proto, states, fps, heights, 2, 4, 1000);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    EXPECT_EQ(serial[c].height, parallel[c].height);
    EXPECT_EQ(serial[c].cell_seed, parallel[c].cell_seed);
    ASSERT_EQ(serial[c].aggregate.runs(), parallel[c].aggregate.runs());
    for (std::size_t r = 0; r < serial[c].aggregate.runs(); ++r) {
      JsonWriter a;
      write_run_outcome(a, serial[c].aggregate.outcomes()[r]);
      JsonWriter b;
      write_run_outcome(b, parallel[c].aggregate.outcomes()[r]);
      EXPECT_EQ(a.str(), b.str()) << "cell " << c << " run " << r;
    }
  }
}

TEST(VideoBatch, SweepJsonIsWritten) {
  const scenario::ScenarioSpec proto = small_video_spec();
  const auto cells =
      run_sweep_grid(proto, {mem::PressureLevel::Normal}, {30}, {480}, 1, 2, 1000);
  ::setenv("MVQOE_JSON_DIR", ::testing::TempDir().c_str(), 1);
  const std::string path = write_sweep_json("runner_selftest", cells, 1, 2, 1000);
  ::unsetenv("MVQOE_JSON_DIR");
  ASSERT_FALSE(path.empty());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 16, '\0');
  const std::size_t n = std::fread(content.data(), 1, content.size(), f);
  std::fclose(f);
  content.resize(n);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"bench\":\"runner_selftest\""), std::string::npos);
  EXPECT_NE(content.find("\"cells\":["), std::string::npos);
  EXPECT_NE(content.find("\"drop_rate_histogram\""), std::string::npos);
}

}  // namespace
}  // namespace mvqoe::runner
