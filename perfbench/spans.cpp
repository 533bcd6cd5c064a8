#include "spans.hpp"

#include <cstdio>
#include <map>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              origin_)
      .count();
}

int SpanRecorder::open(const char* name, std::uint64_t run) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_stack_.empty() ? -1 : open_stack_.back();
  span.run = run;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_stack_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans close in LIFO order (ScopedSpan); pop through `id` regardless.
  while (!open_stack_.empty()) {
    const int top = open_stack_.back();
    open_stack_.pop_back();
    if (top == id) break;
  }
}

void SpanRecorder::arg(int id, const char* key, double value) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].args.emplace_back(key, value);
}

void SpanRecorder::counter(const char* name, double value) {
  if (!enabled_) return;
  counters_.push_back(CounterSample{name, now_ns(), value});
}

std::vector<SpanRecorder::LayerSelf> SpanRecorder::self_time_by_layer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0 && span.end_ns >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, LayerSelf> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    std::string layer(span.name);
    layer = layer.substr(0, layer.find('.'));
    LayerSelf& entry = layers[layer];
    entry.layer = layer;
    entry.self_ms += static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e6;
    ++entry.spans;
  }
  std::vector<LayerSelf> out;
  for (auto& [name, entry] : layers) out.push_back(entry);
  return out;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (std::size_t i = 0; i < spans_.size() && i < export_spans_; ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    std::string layer(span.name);
    layer = layer.substr(0, layer.find('.'));
    sep();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"run\":%llu",
                 span.name, layer.c_str(), static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i, span.parent,
                 static_cast<unsigned long long>(span.run));
    for (const auto& [key, value] : span.args) std::fprintf(f, ",\"%s\":%.17g", key, value);
    std::fputs("}}", f);
  }
  for (std::size_t i = 0; i < counters_.size() && i < export_counters_; ++i) {
    const CounterSample& sample = counters_[i];
    sep();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"args\":{\"value\":%.17g}}",
                 sample.name, static_cast<double>(sample.at_ns) / 1e3, sample.value);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
