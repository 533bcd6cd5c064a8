#include "net/cc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace mvqoe::net {
namespace {

constexpr double kMssBytes = 1500.0;
constexpr double kCwndFloor = 2.0 * kMssBytes;
constexpr double kCwndCeiling = 64.0 * 1024.0 * 1024.0;

double clamp_cwnd(double cwnd) { return std::clamp(cwnd, kCwndFloor, kCwndCeiling); }

// --- Cubic ------------------------------------------------------------------
//
// Loss-based: the window follows the cubic curve
// W(t) = C * (t - K)^3 + w_max anchored at the last loss; a drop
// multiplies the window by beta and restarts the epoch. Against the
// droptail bottleneck this produces the classic sawtooth.
class CubicCc final : public CongestionController {
 public:
  explicit CubicCc(const NetSpec& spec)
      : mss_(net_param_or(spec, "mss", kMssBytes)),
        cwnd_(10.0 * mss_) {}

  const char* name() const noexcept override { return "cubic"; }

  void on_ack(sim::Time /*rtt*/, std::uint64_t /*bytes_acked*/, sim::Time now) override {
    if (epoch_start_ < 0) {
      epoch_start_ = now;
      w_max_ = std::max(w_max_, cwnd_);
      k_ = std::cbrt(w_max_ * (1.0 - kBeta) / (kC * mss_));
    }
    const double t = static_cast<double>(now - epoch_start_) * 1e-6;  // seconds
    const double target = kC * mss_ * std::pow(t - k_, 3.0) + w_max_;
    if (target > cwnd_) {
      cwnd_ = clamp_cwnd(target);
    } else {
      cwnd_ = clamp_cwnd(cwnd_ + 0.05 * mss_);  // TCP-friendly creep
    }
  }

  void on_loss(sim::Time /*now*/) override {
    w_max_ = cwnd_;
    cwnd_ = clamp_cwnd(cwnd_ * kBeta);
    epoch_start_ = -1;  // restart the cubic epoch on the next ack
  }

  double cwnd_bytes() const noexcept override { return cwnd_; }
  double pacing_bytes_per_usec() const noexcept override { return 0.0; }

  void save(snapshot::ByteWriter& w) const override {
    w.f64(cwnd_);
    w.f64(w_max_);
    w.f64(k_);
    w.i64(epoch_start_);
  }

 private:
  static constexpr double kBeta = 0.7;
  static constexpr double kC = 0.4;

  double mss_;
  double cwnd_;
  double w_max_ = 0.0;
  double k_ = 0.0;
  sim::Time epoch_start_ = -1;
};

// --- BBR-style --------------------------------------------------------------
//
// Model-based: estimate the bottleneck bandwidth as a decaying max of
// per-ack delivery-rate samples and the path's min RTT, then pace at
// gain × btlbw while capping the window at 2 × BDP. The gain cycles
// through the standard 8-phase probe pattern, one phase per min-RTT.
class BbrCc final : public CongestionController {
 public:
  explicit BbrCc(const NetSpec& spec) : mss_(net_param_or(spec, "mss", kMssBytes)) {}

  const char* name() const noexcept override { return "bbr"; }

  void on_ack(sim::Time rtt, std::uint64_t bytes_acked, sim::Time now) override {
    if (rtt > 0 && (min_rtt_ <= 0 || rtt < min_rtt_)) min_rtt_ = rtt;
    if (rtt > 0) {
      const double sample = static_cast<double>(bytes_acked) / static_cast<double>(rtt);
      btlbw_ = sample >= btlbw_ ? sample : std::max(sample, btlbw_ * 0.995);
    }
    if (min_rtt_ > 0 && now - phase_started_ >= min_rtt_) {
      phase_started_ = now;
      phase_ = (phase_ + 1) % 8;
    }
  }

  void on_loss(sim::Time /*now*/) override {
    // BBR ignores isolated losses; a droptail burst still trims the
    // model slightly so the estimator can re-probe.
    btlbw_ *= 0.98;
  }

  double cwnd_bytes() const noexcept override {
    if (btlbw_ <= 0.0 || min_rtt_ <= 0) return 10.0 * mss_;
    return clamp_cwnd(2.0 * btlbw_ * static_cast<double>(min_rtt_));
  }

  double pacing_bytes_per_usec() const noexcept override {
    if (btlbw_ <= 0.0) return 0.0;  // startup: unpaced until a sample lands
    return kGainCycle[phase_] * btlbw_;
  }

  void save(snapshot::ByteWriter& w) const override {
    w.f64(btlbw_);
    w.i64(min_rtt_);
    w.i64(phase_started_);
    w.u32(static_cast<std::uint32_t>(phase_));
  }

 private:
  static constexpr double kGainCycle[8] = {1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};

  double mss_;
  double btlbw_ = 0.0;           // bytes per microsecond
  sim::Time min_rtt_ = 0;
  sim::Time phase_started_ = 0;
  std::size_t phase_ = 0;
};

// --- C4-spirit --------------------------------------------------------------
//
// Delay-based "most restrictive signal": every RTT the controller
// evaluates its three signals — queuing delay above target, loss seen
// this round, and additive probe — and applies whichever demands the
// smallest window. Media-friendly: it backs off on standing queues
// long before droptail losses appear.
class C4Cc final : public CongestionController {
 public:
  explicit C4Cc(const NetSpec& spec)
      : mss_(net_param_or(spec, "mss", kMssBytes)),
        delay_target_(static_cast<sim::Time>(net_param_or(spec, "c4_delay_target_us", 10000.0))),
        cwnd_(10.0 * mss_) {}

  const char* name() const noexcept override { return "c4"; }

  void on_ack(sim::Time rtt, std::uint64_t /*bytes_acked*/, sim::Time now) override {
    if (rtt > 0 && (min_rtt_ <= 0 || rtt < min_rtt_)) min_rtt_ = rtt;
    last_rtt_ = rtt;
    if (min_rtt_ <= 0 || now - round_started_ < min_rtt_) return;
    round_started_ = now;
    const sim::Time queuing = last_rtt_ > min_rtt_ ? last_rtt_ - min_rtt_ : 0;
    // Most restrictive of: loss backoff, delay backoff, additive probe.
    double candidate = cwnd_ + mss_;
    if (queuing > delay_target_) candidate = std::min(candidate, cwnd_ * 0.9);
    if (loss_this_round_) candidate = std::min(candidate, cwnd_ * 0.7);
    loss_this_round_ = false;
    cwnd_ = clamp_cwnd(candidate);
  }

  void on_loss(sim::Time /*now*/) override { loss_this_round_ = true; }

  double cwnd_bytes() const noexcept override { return cwnd_; }

  double pacing_bytes_per_usec() const noexcept override {
    // Pace the window over the observed RTT to avoid self-inflicted
    // bursts (the delay signal would otherwise chase its own queue).
    if (min_rtt_ <= 0) return 0.0;
    const sim::Time horizon = std::max(last_rtt_, min_rtt_);
    return cwnd_ / static_cast<double>(horizon);
  }

  void save(snapshot::ByteWriter& w) const override {
    w.f64(cwnd_);
    w.i64(min_rtt_);
    w.i64(last_rtt_);
    w.i64(round_started_);
    w.b(loss_this_round_);
  }

 private:
  double mss_;
  sim::Time delay_target_;
  double cwnd_;
  sim::Time min_rtt_ = 0;
  sim::Time last_rtt_ = 0;
  sim::Time round_started_ = 0;
  bool loss_this_round_ = false;
};

}  // namespace

void save_net_spec(snapshot::ByteWriter& w, const NetSpec& spec) {
  w.str(spec.cc);
  w.u32(static_cast<std::uint32_t>(spec.params.size()));
  for (const auto& [key, value] : spec.params) {
    w.str(key);
    w.f64(value);
  }
}

NetSpec load_net_spec(snapshot::ByteReader& r) {
  NetSpec spec;
  spec.cc = r.str();
  const std::uint32_t count = r.u32();
  spec.params.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string key = r.str();
    const double value = r.f64();
    spec.params.emplace_back(std::move(key), value);
  }
  return spec;
}

const std::vector<std::string>& cc_names() {
  static const std::vector<std::string> names = {"fifo", "cubic", "bbr", "c4"};
  return names;
}

void validate_net_spec(const NetSpec& spec) {
  (void)make_congestion_controller(spec);  // an unknown name throws
  for (const auto& [key, value] : spec.params) {
    // fifo reads no parameter; the flow engine reads mss and queue_kb,
    // and c4 also reads its delay target.
    const bool read = spec.cc != "fifo" && (key == "mss" || key == "queue_kb" ||
                                             (spec.cc == "c4" && key == "c4_delay_target_us"));
    if (!read) {
      throw std::invalid_argument("net: congestion controller '" + spec.cc +
                                  "' reads no parameter '" + key + "'");
    }
    if (!std::isfinite(value) || value <= 0.0) {
      throw std::invalid_argument("net: parameter '" + key + "' must be > 0, got " +
                                  std::to_string(value));
    }
  }
}

double net_param_or(const NetSpec& spec, const std::string& key, double fallback) {
  for (const auto& [name, value] : spec.params) {
    if (name == key) return value;
  }
  return fallback;
}

std::unique_ptr<CongestionController> make_congestion_controller(const NetSpec& spec) {
  if (spec.cc == "fifo") return nullptr;
  if (spec.cc == "cubic") return std::make_unique<CubicCc>(spec);
  if (spec.cc == "bbr") return std::make_unique<BbrCc>(spec);
  if (spec.cc == "c4") return std::make_unique<C4Cc>(spec);
  throw std::invalid_argument("net: unknown congestion controller '" + spec.cc + "'");
}

}  // namespace mvqoe::net
