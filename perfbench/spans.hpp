// In-memory span recorder for the traced benchmark run.
//
// Spans wrap the library's public calls from the benchmark's own code:
// name ("layer.call"), start, end, parent span and run id, plus counter
// arguments sampled at the same boundaries. Nothing is written until
// the run ends; write_chrome_json() then emits Chrome trace-event JSON
// (complete "X" events and "C" counter tracks), which the Perfetto UI
// opens directly. A disabled recorder records nothing and costs one
// branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const noexcept { return enabled_; }
  /// Turn recording on or off between runs (spans still open stay valid).
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  /// Open a span as a child of the innermost open span; returns its id,
  /// or -1 when disabled. `name` must be a string literal.
  int open(const char* name, std::uint64_t run);
  void close(int id);
  /// Attach a counter value to a span (shown under "args" in the viewer).
  void arg(int id, const char* key, double value);
  /// A sample on counter track `name` at the current instant.
  void counter(const char* name, double value);

  struct LayerSelf {
    std::string layer;
    double self_ms = 0.0;
    std::uint64_t spans = 0;
  };
  /// Self time per layer (the text before the first '.' of a span name):
  /// each span's duration minus the time its direct children cover.
  std::vector<LayerSelf> self_time_by_layer() const;

  /// Export only what is recorded so far (keeps trace files small when
  /// later passes add many more spans); without it everything is written.
  void limit_export() noexcept {
    export_spans_ = spans_.size();
    export_counters_ = counters_.size();
  }
  /// Write the exported spans and counter samples as Chrome trace-event
  /// JSON.
  bool write_chrome_json(const std::string& path) const;

  std::size_t span_count() const noexcept { return spans_.size(); }

 private:
  struct Span {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
    std::uint64_t run = 0;
    std::vector<std::pair<const char*, double>> args;
  };
  struct CounterSample {
    const char* name = nullptr;
    std::int64_t at_ns = 0;
    double value = 0.0;
  };

  std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_stack_;
  std::vector<CounterSample> counters_;
  std::size_t export_spans_ = static_cast<std::size_t>(-1);
  std::size_t export_counters_ = static_cast<std::size_t>(-1);
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, std::uint64_t run)
      : recorder_(recorder), id_(recorder.open(name, run)) {}
  ~ScopedSpan() { recorder_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void arg(const char* key, double value) { recorder_.arg(id_, key, value); }

 private:
  SpanRecorder& recorder_;
  int id_;
};

}  // namespace perfbench
