#include "net/link.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "snapshot/digest.hpp"
#include "snapshot/rng_io.hpp"

namespace mvqoe::net {
namespace {

/// Seed stream for the CC-mode per-packet loss draw ("NETC"): one
/// deterministic stream per link, consumed only when a loss rate is
/// armed, so fault-free runs never touch it.
constexpr std::uint64_t kLossRngSeed = 0x4E455443ULL;

}  // namespace

Link::Link(sim::Engine& engine, LinkConfig config, NetSpec net)
    : engine_(engine),
      config_(config),
      net_(std::move(net)),
      cc_mode_(net_.cc != "fifo"),
      cc_loss_rng_(kLossRngSeed) {
  if (cc_mode_) {
    validate_net_spec(net_);
    cc_mss_ = std::max(1.0, snapshot::find_param(net_.params, "mss").value_or(1500.0));
    cc_queue_capacity_ = static_cast<std::uint64_t>(
        std::max(1.0, snapshot::find_param(net_.params, "queue_kb").value_or(64.0)) * 1024.0);
  }
}

double Link::bytes_per_usec() const noexcept { return config_.rate_mbps / 8.0; }

sim::Time Link::idle_transfer_time(std::uint64_t bytes) const noexcept {
  const double micros = static_cast<double>(bytes) * 8.0 / (config_.rate_mbps * 1e6) * 1e6;
  return config_.propagation + config_.per_transfer_overhead +
         static_cast<sim::Time>(std::ceil(micros));
}

TransferId Link::transfer(std::uint64_t bytes, CompletionFn on_complete) {
  if (cc_mode_) return cc_transfer(bytes, std::move(on_complete));
  const TransferId id = next_id_++;
  queue_.push_back(Pending{id, bytes, std::move(on_complete)});
  pump();
  return id;
}

bool Link::cancel(TransferId id) {
  if (id == kInvalidTransfer) return false;
  if (cc_mode_) return cc_cancel(id);
  if (active_.id == id) {
    if (active_.completion != sim::kInvalidEvent) engine_.cancel(active_.completion);
    if (active_.timeout != sim::kInvalidEvent) engine_.cancel(active_.timeout);
    active_ = Active{};
    ++counters_.cancelled;
    pump();
    return true;
  }
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id == id) {
      queue_.erase(it);
      ++counters_.cancelled;
      return true;
    }
  }
  return false;
}

void Link::set_rate_mbps(double rate_mbps) {
  if (cc_mode_) {
    const bool was_stalled = config_.rate_mbps <= 0.0;
    config_.rate_mbps = rate_mbps;
    if (was_stalled && rate_mbps > 0.0 && !down_) {
      for (auto& [id, flow] : flows_) cc_try_send(*flow);
    }
    return;
  }
  if (active_.id != kInvalidTransfer && !down_) {
    // Fold progress made at the old rate, then reschedule the completion
    // from the bytes still outstanding at the new rate — a mid-transfer
    // rate drop (or outage recovery at a different rate) must stretch the
    // in-flight transfer, not be silently ignored.
    repace_active();
  }
  config_.rate_mbps = rate_mbps;
  if (active_.id != kInvalidTransfer && !down_) repace_active();
}

void Link::set_down(bool down) {
  if (down == down_) return;
  if (cc_mode_) {
    down_ = down;
    if (down) {
      ++counters_.outages;
    } else {
      for (auto& [id, flow] : flows_) cc_try_send(*flow);
    }
    return;
  }
  if (down) {
    ++counters_.outages;
    if (active_.id != kInvalidTransfer) {
      repace_active();  // freeze remaining bytes as of now
      if (active_.completion != sim::kInvalidEvent) {
        engine_.cancel(active_.completion);
        active_.completion = sim::kInvalidEvent;
      }
      suspend_timeout();
    }
    down_ = true;
  } else {
    down_ = false;
    if (active_.id != kInvalidTransfer) {
      active_.paced_at = engine_.now();  // outage time transferred no bytes
      arm_timeout();
      repace_active();
    }
    pump();
  }
}

void Link::repace_active() {
  // Fold wall time since the last pacing point into setup, then payload.
  sim::Time elapsed = engine_.now() - active_.paced_at;
  const sim::Time setup_used = std::min(elapsed, active_.setup_remaining);
  active_.setup_remaining -= setup_used;
  elapsed -= setup_used;
  if (elapsed > 0 && bytes_per_usec() > 0.0) {
    active_.remaining_bytes =
        std::max(0.0, active_.remaining_bytes - static_cast<double>(elapsed) * bytes_per_usec());
  }
  active_.paced_at = engine_.now();

  if (active_.completion != sim::kInvalidEvent) {
    engine_.cancel(active_.completion);
    active_.completion = sim::kInvalidEvent;
  }
  if (down_ || config_.rate_mbps <= 0.0) return;  // frozen until restored
  const sim::Time payload = static_cast<sim::Time>(
      std::ceil(active_.remaining_bytes / bytes_per_usec()));
  const sim::Time duration = std::max<sim::Time>(1, active_.setup_remaining + payload);
  active_.completion = engine_.schedule_flat(duration, &Link::on_completion, this);
}

void Link::on_completion(void* ctx, std::uint64_t) {
  auto* self = static_cast<Link*>(ctx);
  self->active_.completion = sim::kInvalidEvent;
  self->active_.remaining_bytes = 0.0;
  self->active_.setup_remaining = 0;
  self->finish_active(true);
}

void Link::finish_active(bool ok) {
  if (active_.completion != sim::kInvalidEvent) engine_.cancel(active_.completion);
  if (active_.timeout != sim::kInvalidEvent) engine_.cancel(active_.timeout);
  if (ok) {
    bytes_delivered_ += active_.total_bytes;
    ++counters_.completed;
  } else {
    ++counters_.timed_out;
  }
  CompletionFn on_complete = std::move(active_.on_complete);
  active_ = Active{};
  if (on_complete) on_complete(ok);
  pump();
}

void Link::arm_timeout() {
  if (active_.timeout_remaining <= 0 || active_.timeout != sim::kInvalidEvent) return;
  active_.timeout_armed_at = engine_.now();
  active_.timeout = engine_.schedule_flat(active_.timeout_remaining, &Link::on_timeout, this);
}

void Link::on_timeout(void* ctx, std::uint64_t) {
  auto* self = static_cast<Link*>(ctx);
  self->active_.timeout = sim::kInvalidEvent;
  self->finish_active(false);
}

void Link::suspend_timeout() {
  if (active_.timeout == sim::kInvalidEvent) return;
  engine_.cancel(active_.timeout);
  active_.timeout = sim::kInvalidEvent;
  active_.timeout_remaining = std::max<sim::Time>(
      1, active_.timeout_remaining - (engine_.now() - active_.timeout_armed_at));
}

void Link::pump() {
  if (active_.id != kInvalidTransfer || queue_.empty()) return;
  Pending next = std::move(queue_.front());
  queue_.pop_front();
  active_.id = next.id;
  active_.total_bytes = next.bytes;
  active_.remaining_bytes = static_cast<double>(next.bytes);
  active_.setup_remaining = config_.propagation + config_.per_transfer_overhead;
  active_.paced_at = engine_.now();
  active_.on_complete = std::move(next.on_complete);
  active_.timeout_remaining = config_.transfer_timeout;
  if (!down_) {
    arm_timeout();
    if (config_.rate_mbps > 0.0) repace_active();
  }
}

// --- CC-mode flow engine ----------------------------------------------------

TransferId Link::cc_transfer(std::uint64_t bytes, CompletionFn on_complete) {
  const TransferId id = next_id_++;
  auto flow = std::make_unique<Flow>();
  flow->id = id;
  flow->total_bytes = bytes;
  flow->remaining_bytes = static_cast<double>(bytes);
  flow->on_complete = std::move(on_complete);
  flow->cc = make_congestion_controller(net_);
  // The request leg + server turnaround mirrors the fifo path's setup
  // charge; sending starts once it is paid.
  flow->start_event =
      engine_.schedule_flat(config_.propagation + config_.per_transfer_overhead,
                            &Link::on_flow_start, this, id);
  flows_.emplace(id, std::move(flow));
  return id;
}

bool Link::cc_cancel(TransferId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  Flow& flow = *it->second;
  if (flow.start_event != sim::kInvalidEvent) engine_.cancel(flow.start_event);
  if (flow.send_event != sim::kInvalidEvent) engine_.cancel(flow.send_event);
  if (flow.timeout_event != sim::kInvalidEvent) engine_.cancel(flow.timeout_event);
  cc_retired_delivered_ += flow.delivered_bytes;
  flows_.erase(it);  // stray ack/loss events find no flow and no-op
  ++counters_.cancelled;
  return true;
}

void Link::on_flow_start(void* ctx, std::uint64_t id) {
  auto* self = static_cast<Link*>(ctx);
  auto it = self->flows_.find(id);
  if (it == self->flows_.end()) return;
  Flow& flow = *it->second;
  flow.start_event = sim::kInvalidEvent;
  flow.started = true;
  if (self->config_.transfer_timeout > 0) {
    flow.timeout_event = self->engine_.schedule_flat(self->config_.transfer_timeout,
                                                     &Link::on_flow_timeout, self, id);
  }
  self->cc_try_send(flow);
}

void Link::cc_try_send(Flow& flow) {
  if (down_ || !flow.started || config_.rate_mbps <= 0.0) return;
  while (flow.remaining_bytes > 0.0) {
    const double pkt = std::min(cc_mss_, flow.remaining_bytes);
    const double cwnd = flow.cc->cwnd_bytes();
    // Window-limited: wait for acks (or loss detection) to re-open it.
    if (flow.inflight_bytes > 0.0 && flow.inflight_bytes + pkt > cwnd) return;
    const double pace = flow.cc->pacing_bytes_per_usec();
    const sim::Time now = engine_.now();
    if (pace > 0.0 && flow.pace_next > now) {
      if (flow.send_event == sim::kInvalidEvent) {
        flow.send_event =
            engine_.schedule_flat_at(flow.pace_next, &Link::on_flow_send, this, flow.id);
      }
      return;
    }
    cc_send_packet(flow, pkt);
    if (pace > 0.0) {
      flow.pace_next = std::max(now, flow.pace_next) +
                       std::max<sim::Time>(1, static_cast<sim::Time>(std::ceil(pkt / pace)));
    }
  }
}

void Link::cc_send_packet(Flow& flow, double pkt_bytes) {
  const sim::Time now = engine_.now();
  cc_prune_departures(now);
  const sim::Time serialize =
      std::max<sim::Time>(1, static_cast<sim::Time>(std::ceil(pkt_bytes / bytes_per_usec())));
  flow.remaining_bytes -= pkt_bytes;
  flow.inflight_bytes += pkt_bytes;

  bool drop = cc_backlog_bytes_ + pkt_bytes > static_cast<double>(cc_queue_capacity_);
  if (!drop && cc_loss_rate_ > 0.0) drop = cc_loss_rng_.bernoulli(cc_loss_rate_);
  if (drop) {
    ++flow.losses;
    ++cc_packets_dropped_;
    flow.loss_pending.push_back(pkt_bytes);
    // Loss surfaces after a feedback delay (dupack-style): one RTT past
    // where the ack would have been.
    engine_.schedule_flat(2 * config_.propagation + serialize + 1, &Link::on_flow_loss, this,
                          flow.id);
    return;
  }

  const sim::Time start = std::max(now, cc_queue_busy_until_);
  flow.qdelay.add(start - now);
  cc_qdelay_.add(start - now);
  cc_queue_busy_until_ = start + serialize;
  cc_backlog_bytes_ += pkt_bytes;
  cc_departures_.emplace_back(cc_queue_busy_until_, pkt_bytes);
  ++cc_packets_sent_;
  flow.in_flight.push_back(Packet{pkt_bytes, now});
  engine_.schedule_flat_at(cc_queue_busy_until_ + 2 * config_.propagation, &Link::on_flow_ack,
                           this, flow.id);
}

void Link::cc_prune_departures(sim::Time now) const {
  while (!cc_departures_.empty() && cc_departures_.front().first <= now) {
    cc_backlog_bytes_ = std::max(0.0, cc_backlog_bytes_ - cc_departures_.front().second);
    cc_departures_.pop_front();
  }
}

void Link::on_flow_ack(void* ctx, std::uint64_t id) {
  auto* self = static_cast<Link*>(ctx);
  auto it = self->flows_.find(id);
  if (it == self->flows_.end()) return;  // flow cancelled/failed meanwhile
  Flow& flow = *it->second;
  if (flow.in_flight.empty()) return;
  const Packet pkt = flow.in_flight.front();
  flow.in_flight.pop_front();
  flow.inflight_bytes = std::max(0.0, flow.inflight_bytes - pkt.bytes);
  const sim::Time now = self->engine_.now();
  const sim::Time rtt = now - pkt.sent_at;
  flow.last_rtt = rtt;
  if (flow.min_rtt <= 0 || rtt < flow.min_rtt) flow.min_rtt = rtt;
  const auto acked = static_cast<std::uint64_t>(std::llround(pkt.bytes));
  flow.delivered_bytes += acked;
  self->bytes_delivered_ += acked;
  flow.cc->on_ack(rtt, acked, now);
  if (flow.delivered_bytes >= flow.total_bytes) {
    self->cc_finish_flow(id, true);
    return;
  }
  self->cc_try_send(flow);
}

void Link::on_flow_loss(void* ctx, std::uint64_t id) {
  auto* self = static_cast<Link*>(ctx);
  auto it = self->flows_.find(id);
  if (it == self->flows_.end()) return;
  Flow& flow = *it->second;
  if (flow.loss_pending.empty()) return;
  const double bytes = flow.loss_pending.front();
  flow.loss_pending.pop_front();
  flow.inflight_bytes = std::max(0.0, flow.inflight_bytes - bytes);
  flow.remaining_bytes += bytes;  // retransmit
  flow.cc->on_loss(self->engine_.now());
  self->cc_try_send(flow);
}

void Link::on_flow_send(void* ctx, std::uint64_t id) {
  auto* self = static_cast<Link*>(ctx);
  auto it = self->flows_.find(id);
  if (it == self->flows_.end()) return;
  it->second->send_event = sim::kInvalidEvent;
  self->cc_try_send(*it->second);
}

void Link::on_flow_timeout(void* ctx, std::uint64_t id) {
  auto* self = static_cast<Link*>(ctx);
  auto it = self->flows_.find(id);
  if (it == self->flows_.end()) return;
  it->second->timeout_event = sim::kInvalidEvent;
  self->cc_finish_flow(id, false);
}

void Link::cc_finish_flow(TransferId id, bool ok) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  Flow& flow = *it->second;
  if (flow.start_event != sim::kInvalidEvent) engine_.cancel(flow.start_event);
  if (flow.send_event != sim::kInvalidEvent) engine_.cancel(flow.send_event);
  if (flow.timeout_event != sim::kInvalidEvent) engine_.cancel(flow.timeout_event);
  cc_retired_delivered_ += flow.delivered_bytes;
  if (ok) {
    ++counters_.completed;
  } else {
    ++counters_.timed_out;
  }
  CompletionFn on_complete = std::move(flow.on_complete);
  flows_.erase(it);  // before the callback: it may start the next fetch
  if (on_complete) on_complete(ok);
}

std::vector<FlowStats> Link::flow_stats() const {
  std::vector<FlowStats> out;
  out.reserve(flows_.size());
  for (const auto& [id, flow] : flows_) {
    FlowStats fs;
    fs.id = id;
    fs.total_bytes = flow->total_bytes;
    fs.delivered_bytes = flow->delivered_bytes;
    fs.inflight_bytes = static_cast<std::uint64_t>(std::llround(flow->inflight_bytes));
    fs.losses = flow->losses;
    fs.cwnd_bytes = flow->cc ? flow->cc->cwnd_bytes() : 0.0;
    fs.pacing_bytes_per_usec = flow->cc ? flow->cc->pacing_bytes_per_usec() : 0.0;
    fs.min_rtt = flow->min_rtt;
    fs.last_rtt = flow->last_rtt;
    fs.queue_delay = flow->qdelay;
    out.push_back(fs);
  }
  return out;
}

std::uint64_t Link::backlog_bytes() const {
  cc_prune_departures(engine_.now());
  return static_cast<std::uint64_t>(std::llround(cc_backlog_bytes_));
}

void Link::save(snapshot::ByteWriter& w) const {
  if (!cc_mode_) {
    w.u32(1);  // section version
    w.f64(config_.rate_mbps);
    w.b(down_);
    w.u64(bytes_delivered_);
    w.u64(next_id_);
    w.u64(counters_.completed);
    w.u64(counters_.cancelled);
    w.u64(counters_.timed_out);
    w.u64(counters_.outages);
    w.u64(queue_.size());
    for (const Pending& pending : queue_) {
      w.u64(pending.id);
      w.u64(pending.bytes);
    }
    w.u64(active_.id);
    if (active_.id != kInvalidTransfer) {
      w.u64(active_.total_bytes);
      w.f64(active_.remaining_bytes);
      w.i64(active_.setup_remaining);
      w.i64(active_.paced_at);
      w.i64(active_.timeout_remaining);
      w.i64(active_.timeout_armed_at);
    }
    return;
  }

  w.u32(2);  // section version: congestion-controlled flow engine
  save_net_spec(w, net_);
  w.f64(config_.rate_mbps);
  w.b(down_);
  w.u64(bytes_delivered_);
  w.u64(next_id_);
  w.u64(counters_.completed);
  w.u64(counters_.cancelled);
  w.u64(counters_.timed_out);
  w.u64(counters_.outages);
  w.f64(cc_loss_rate_);
  snapshot::write_rng(w, cc_loss_rng_);
  w.u64(cc_retired_delivered_);
  w.u64(cc_packets_sent_);
  w.u64(cc_packets_dropped_);
  w.u64(cc_qdelay_.samples);
  w.i64(cc_qdelay_.total);
  w.i64(cc_qdelay_.max);
  w.i64(cc_queue_busy_until_);
  cc_prune_departures(engine_.now());
  w.f64(cc_backlog_bytes_);
  w.u64(cc_departures_.size());
  for (const auto& [at, bytes] : cc_departures_) {
    w.i64(at);
    w.f64(bytes);
  }
  w.u64(flows_.size());
  for (const auto& [id, flow] : flows_) {
    w.u64(id);
    w.u64(flow->total_bytes);
    w.f64(flow->remaining_bytes);
    w.f64(flow->inflight_bytes);
    w.u64(flow->delivered_bytes);
    w.u64(flow->losses);
    w.b(flow->started);
    w.i64(flow->pace_next);
    w.i64(flow->min_rtt);
    w.i64(flow->last_rtt);
    w.u64(flow->qdelay.samples);
    w.i64(flow->qdelay.total);
    w.i64(flow->qdelay.max);
    w.u64(flow->in_flight.size());
    for (const Packet& pkt : flow->in_flight) {
      w.f64(pkt.bytes);
      w.i64(pkt.sent_at);
    }
    w.u64(flow->loss_pending.size());
    for (const double bytes : flow->loss_pending) w.f64(bytes);
    flow->cc->save(w);
  }
}

std::uint64_t Link::digest() const { return snapshot::state_digest(*this); }

}  // namespace mvqoe::net
