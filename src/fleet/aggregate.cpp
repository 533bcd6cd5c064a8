#include "fleet/aggregate.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "runner/json_writer.hpp"
#include "snapshot/digest.hpp"

namespace mvqoe::fleet {

namespace {

constexpr std::uint32_t kAggregateVersion = 1;
const char* const kLevelNames[kLevels] = {"normal", "moderate", "low", "critical"};

stats::Histogram track_histogram(double lo, double hi, std::size_t bins) {
  return stats::Histogram(lo, hi, bins, stats::Overflow::Track);
}

void encode_histogram(snapshot::ByteWriter& w, const stats::Histogram& h) {
  w.f64(h.low());
  w.f64(h.high());
  w.u8(static_cast<std::uint8_t>(h.policy()));
  w.u32(static_cast<std::uint32_t>(h.bin_count()));
  for (std::size_t b = 0; b < h.bin_count(); ++b) w.u64(h.count(b));
  w.u64(h.below());
  w.u64(h.above());
}

stats::Histogram decode_histogram(snapshot::ByteReader& r) {
  const double lo = r.f64();
  const double hi = r.f64();
  const auto policy = r.enum8("fleet: histogram overflow policy", stats::Overflow::Track);
  const std::uint32_t bins = r.u32();
  stats::Histogram h(lo, hi, bins, policy);
  for (std::uint32_t b = 0; b < bins; ++b) {
    const std::uint64_t count = r.u64();
    if (count > 0) h.add_count(b, static_cast<std::size_t>(count));
  }
  const std::uint64_t below = r.u64();
  const std::uint64_t above = r.u64();
  if (below > 0 || above > 0) {
    h.add_overflow(static_cast<std::size_t>(below), static_cast<std::size_t>(above));
  }
  return h;
}

void encode_sketch(snapshot::ByteWriter& w, const stats::QuantileSketch& s) {
  const stats::QuantileSketch::State state = s.save_state();
  w.u64(state.k);
  w.u64(state.n);
  w.f64(state.min);
  w.f64(state.max);
  w.u32(static_cast<std::uint32_t>(state.levels.size()));
  for (std::size_t l = 0; l < state.levels.size(); ++l) {
    w.u8(state.parity[l]);
    w.u32(static_cast<std::uint32_t>(state.levels[l].size()));
    for (const double v : state.levels[l]) w.f64(v);
  }
}

stats::QuantileSketch decode_sketch(snapshot::ByteReader& r) {
  stats::QuantileSketch::State state;
  state.k = static_cast<std::size_t>(r.u64());
  state.n = r.u64();
  state.min = r.f64();
  state.max = r.f64();
  const std::uint32_t level_count = r.u32();
  state.parity.resize(level_count);
  state.levels.resize(level_count);
  for (std::uint32_t l = 0; l < level_count; ++l) {
    state.parity[l] = r.u8();
    const std::uint32_t count = r.u32();
    state.levels[l].reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) state.levels[l].push_back(r.f64());
  }
  stats::QuantileSketch sketch;
  sketch.restore_state(state);
  return sketch;
}

void encode_accumulator(snapshot::ByteWriter& w, const stats::Accumulator& a) {
  const stats::Accumulator::State state = a.save_state();
  w.u64(state.n);
  w.f64(state.mean);
  w.f64(state.m2);
  w.f64(state.min);
  w.f64(state.max);
}

stats::Accumulator decode_accumulator(snapshot::ByteReader& r) {
  stats::Accumulator::State state;
  state.n = static_cast<std::size_t>(r.u64());
  state.mean = r.f64();
  state.m2 = r.f64();
  state.min = r.f64();
  state.max = r.f64();
  stats::Accumulator acc;
  acc.restore_state(state);
  return acc;
}

}  // namespace

FleetAggregate::FleetAggregate()
    : utilization(track_histogram(0.0, 1.0, 100)),
      signals_per_hour(track_histogram(0.0, 600.0, 120)),
      not_normal_fraction(track_histogram(0.0, 1.0, 50)),
      available_mb{track_histogram(0.0, 8192.0, 128), track_histogram(0.0, 8192.0, 128),
                   track_histogram(0.0, 8192.0, 128), track_histogram(0.0, 8192.0, 128)} {}

void FleetAggregate::fold(const DeviceObservations& obs, const FleetSpec& spec) {
  ++device_count;
  session_seconds += static_cast<std::uint64_t>(spec.session_s);
  for (std::size_t l = 0; l < kLevels; ++l) {
    signals[l] += obs.signals[l];
    seconds_in_level[l] += obs.seconds_in_level[l];
    for (std::size_t t = 0; t < kLevels; ++t) transitions[l][t] += obs.transitions[l][t];
  }
  for (const auto& [from, seconds] : obs.dwell) dwell[from].add(seconds);
  for (const double u : obs.util_samples) {
    utilization.add(u);
    utilization_quantiles.add(u);
  }
  for (const auto& [level, mb] : obs.avail_samples) {
    available_mb[level].add(mb);
    available_acc[level].add(mb);
  }
  const double hours = static_cast<double>(spec.session_s) / 3600.0;
  const double rate =
      static_cast<double>(obs.signals[1] + obs.signals[2] + obs.signals[3]) / hours;
  signals_per_hour.add(rate);
  signals_rate.add(rate);
  const double not_normal =
      1.0 - static_cast<double>(obs.seconds_in_level[0]) / static_cast<double>(spec.session_s);
  not_normal_fraction.add(not_normal);
}

void FleetAggregate::merge(const FleetAggregate& other) {
  device_count += other.device_count;
  session_seconds += other.session_seconds;
  for (std::size_t l = 0; l < kLevels; ++l) {
    signals[l] += other.signals[l];
    seconds_in_level[l] += other.seconds_in_level[l];
    for (std::size_t t = 0; t < kLevels; ++t) transitions[l][t] += other.transitions[l][t];
    available_mb[l].merge(other.available_mb[l]);
    available_acc[l].merge(other.available_acc[l]);
    dwell[l].merge(other.dwell[l]);
  }
  utilization.merge(other.utilization);
  utilization_quantiles.merge(other.utilization_quantiles);
  signals_per_hour.merge(other.signals_per_hour);
  signals_rate.merge(other.signals_rate);
  not_normal_fraction.merge(other.not_normal_fraction);
}

void FleetAggregate::save(snapshot::ByteWriter& w) const {
  w.u32(kAggregateVersion);
  w.u64(device_count);
  w.u64(session_seconds);
  for (const std::uint64_t s : signals) w.u64(s);
  for (const std::uint64_t s : seconds_in_level) w.u64(s);
  for (const auto& row : transitions) {
    for (const std::uint64_t t : row) w.u64(t);
  }
  encode_histogram(w, utilization);
  encode_sketch(w, utilization_quantiles);
  encode_histogram(w, signals_per_hour);
  encode_accumulator(w, signals_rate);
  encode_histogram(w, not_normal_fraction);
  for (const stats::Histogram& h : available_mb) encode_histogram(w, h);
  for (const stats::Accumulator& a : available_acc) encode_accumulator(w, a);
  for (const stats::QuantileSketch& s : dwell) encode_sketch(w, s);
}

FleetAggregate FleetAggregate::load(snapshot::ByteReader& r) {
  const std::uint32_t version = r.u32();
  if (version != kAggregateVersion) {
    throw std::runtime_error("fleet: unsupported aggregate version " + std::to_string(version));
  }
  FleetAggregate a;
  a.device_count = r.u64();
  a.session_seconds = r.u64();
  for (std::uint64_t& s : a.signals) s = r.u64();
  for (std::uint64_t& s : a.seconds_in_level) s = r.u64();
  for (auto& row : a.transitions) {
    for (std::uint64_t& t : row) t = r.u64();
  }
  a.utilization = decode_histogram(r);
  a.utilization_quantiles = decode_sketch(r);
  a.signals_per_hour = decode_histogram(r);
  a.signals_rate = decode_accumulator(r);
  a.not_normal_fraction = decode_histogram(r);
  for (stats::Histogram& h : a.available_mb) h = decode_histogram(r);
  for (stats::Accumulator& acc : a.available_acc) acc = decode_accumulator(r);
  for (stats::QuantileSketch& s : a.dwell) s = decode_sketch(r);
  return a;
}

std::string FleetAggregate::encode() const {
  snapshot::ByteWriter w;
  save(w);
  return std::move(w).take();
}

FleetAggregate FleetAggregate::decode(std::string_view bytes) {
  snapshot::ByteReader r(bytes);
  FleetAggregate a = load(r);
  if (!r.done()) throw std::runtime_error("fleet: trailing bytes after the fleet aggregate");
  return a;
}

std::uint64_t FleetAggregate::digest() const { return snapshot::digest_bytes(encode()); }

void FleetAggregate::save_section(snapshot::Snapshot& blob) const {
  blob.put(kFleetTag, encode());
}

FleetAggregate FleetAggregate::load_section(const snapshot::Snapshot& blob) {
  return decode(blob.require(kFleetTag));
}

snapshot::Snapshot save_fleet_blob(const FleetSpec& spec, const FleetAggregate& aggregate) {
  snapshot::Snapshot blob;
  blob.put(kFleetConfigTag, encode_fleet_config(spec));
  aggregate.save_section(blob);
  return blob;
}

std::pair<FleetSpec, FleetAggregate> load_fleet_blob(const snapshot::Snapshot& blob) {
  return {decode_fleet_config(std::string(blob.require(kFleetConfigTag))),
          FleetAggregate::load_section(blob)};
}

namespace {

void quantile_field(runner::JsonWriter& w, const stats::QuantileSketch& s, const char* name,
                    double q) {
  w.key(name);
  if (s.empty()) {
    w.null();
  } else {
    w.value(s.quantile(q));
  }
}

void write_accumulator(runner::JsonWriter& w, const stats::Accumulator& a) {
  w.begin_object()
      .field("n", static_cast<std::uint64_t>(a.count()))
      .field("mean", a.mean())
      .field("stddev", a.stddev())
      .field("min", a.min())
      .field("max", a.max())
      .end_object();
}

}  // namespace

std::string fleet_report_json(const FleetSpec& spec, const FleetAggregate& a) {
  runner::JsonWriter w;
  w.begin_object()
      .field("bench", "fleet")
      .field("devices", a.device_count)
      .field("session_s", spec.session_s)
      .field("sample_period_s", spec.sample_period_s)
      .field("warmup_s", spec.warmup_s)
      .field("shard_size", spec.shard_size)
      .field("seed", spec.seed);
  char digest_hex[24];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(a.digest()));
  w.field("aggregate_digest", digest_hex);

  w.key("fig2_utilization").begin_object();
  w.key("histogram");
  runner::write_histogram(w, a.utilization);
  w.key("quantiles").begin_object();
  quantile_field(w, a.utilization_quantiles, "p10", 0.10);
  quantile_field(w, a.utilization_quantiles, "p25", 0.25);
  quantile_field(w, a.utilization_quantiles, "p50", 0.50);
  quantile_field(w, a.utilization_quantiles, "p75", 0.75);
  quantile_field(w, a.utilization_quantiles, "p90", 0.90);
  quantile_field(w, a.utilization_quantiles, "p99", 0.99);
  w.end_object().end_object();

  w.key("fig3_signals_per_hour").begin_object();
  w.key("histogram");
  runner::write_histogram(w, a.signals_per_hour);
  w.key("per_device_rate");
  write_accumulator(w, a.signals_rate);
  w.end_object();

  w.key("fig4_time_in_states").begin_object();
  w.key("fraction_in_level").begin_array();
  for (std::size_t l = 0; l < kLevels; ++l) {
    w.value(a.session_seconds == 0 ? 0.0
                                   : static_cast<double>(a.seconds_in_level[l]) /
                                         static_cast<double>(a.session_seconds));
  }
  w.end_array();
  w.key("per_device_not_normal");
  runner::write_histogram(w, a.not_normal_fraction);
  w.end_object();

  w.key("fig5_available_mb").begin_array();
  for (std::size_t l = 0; l < kLevels; ++l) {
    w.begin_object().field("level", kLevelNames[l]);
    w.key("histogram");
    runner::write_histogram(w, a.available_mb[l]);
    w.key("summary");
    write_accumulator(w, a.available_acc[l]);
    w.end_object();
  }
  w.end_array();

  w.key("fig6_dwell").begin_object();
  w.key("transitions").begin_array();
  for (const auto& row : a.transitions) {
    w.begin_array();
    for (const std::uint64_t t : row) w.value(t);
    w.end_array();
  }
  w.end_array();
  w.key("dwell_s").begin_array();
  for (std::size_t l = 0; l < kLevels; ++l) {
    w.begin_object()
        .field("level", kLevelNames[l])
        .field("n", a.dwell[l].count());
    quantile_field(w, a.dwell[l], "p25", 0.25);
    quantile_field(w, a.dwell[l], "p50", 0.50);
    quantile_field(w, a.dwell[l], "p75", 0.75);
    quantile_field(w, a.dwell[l], "p90", 0.90);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("signals").begin_array();
  for (const std::uint64_t s : a.signals) w.value(s);
  w.end_array();
  w.field("total_session_hours", static_cast<double>(a.session_seconds) / 3600.0);
  w.end_object();
  return w.str();
}

}  // namespace mvqoe::fleet
