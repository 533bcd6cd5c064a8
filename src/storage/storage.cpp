#include "storage/storage.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "snapshot/digest.hpp"
#include "snapshot/rng_io.hpp"

namespace mvqoe::storage {

StorageDevice::StorageDevice(sim::Engine& engine, sched::Scheduler& scheduler,
                             StorageConfig config)
    : engine_(engine), scheduler_(scheduler), config_(config) {
  sched::ThreadSpec spec;
  spec.name = "mmcqd";
  spec.pid = 1;  // kernel
  spec.process_name = "kernel";
  spec.sched_class = sched::SchedClass::Realtime;
  spec.priority = config_.rt_priority;
  mmcqd_ = scheduler_.create_thread(spec);
}

sim::Time StorageDevice::transfer_time(bool write, std::uint64_t bytes) const noexcept {
  const double mbps = write ? config_.write_bandwidth_mbps : config_.read_bandwidth_mbps;
  const double micros = static_cast<double>(bytes) / (mbps * 1e6) * 1e6;
  const sim::Time nominal = config_.request_latency + static_cast<sim::Time>(std::ceil(micros));
  return static_cast<sim::Time>(std::ceil(static_cast<double>(nominal) * latency_multiplier_));
}

void StorageDevice::set_latency_multiplier(double multiplier) noexcept {
  latency_multiplier_ = std::max(multiplier, 0.01);
}

void StorageDevice::set_error_rate(double rate, std::uint64_t seed) noexcept {
  error_rate_ = std::clamp(rate, 0.0, 1.0);
  fault_rng_ = stats::Rng(seed);
}

void StorageDevice::submit(IoRequest request) {
  queue_.push_back(std::move(request));
  if (!active_) pump();
}

void StorageDevice::pump() {
  if (queue_depth() == 0) {
    active_ = false;
    return;
  }
  active_ = true;
  // Dispatch phase: mmcqd wakes and burns CPU issuing the request. This
  // wakeup is what preempts fair-class threads.
  scheduler_.run_work(mmcqd_, config_.dispatch_cpu_refus,
                      sim::flat_method<&StorageDevice::dispatched>, this);
}

void StorageDevice::dispatched() {
  in_flight_ = std::move(queue_[queue_head_++]);
  if (queue_head_ * 2 >= queue_.size()) {
    queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(queue_head_));
    queue_head_ = 0;
  }
  if (in_flight_.write) {
    ++counters_.writes;
    counters_.written_bytes += in_flight_.bytes;
  } else {
    ++counters_.reads;
    counters_.read_bytes += in_flight_.bytes;
  }
  device_transfer(1);
}

void StorageDevice::device_transfer(std::uint64_t attempt) {
  // Device transfer: mmcqd blocks while the eMMC moves the data.
  scheduler_.mark_blocked_io(mmcqd_);
  engine_.schedule_flat(transfer_time(in_flight_.write, in_flight_.bytes),
                        sim::flat_method<&StorageDevice::transfer_done>, this, attempt);
}

void StorageDevice::transfer_done(std::uint64_t attempt) {
  // Injected transient failure: the device retries after a back-off;
  // the final attempt always succeeds so requesters never wedge.
  if (error_rate_ > 0.0 && static_cast<int>(attempt) <= config_.max_error_retries &&
      fault_rng_.bernoulli(error_rate_)) {
    ++counters_.io_errors;
    ++counters_.io_retries;
    engine_.schedule_flat(config_.error_retry_delay,
                          sim::flat_method<&StorageDevice::device_transfer>, this, attempt + 1);
    return;
  }
  // Completion phase: another CPU burst (another preemption), then the
  // requester's callback and the next queued request.
  scheduler_.run_work(mmcqd_, config_.completion_cpu_refus,
                      sim::flat_method<&StorageDevice::completed>, this);
}

void StorageDevice::completed() {
  const std::function<void()> on_complete = std::exchange(in_flight_.on_complete, nullptr);
  if (on_complete) on_complete();
  pump();
}

void StorageDevice::save(snapshot::ByteWriter& w) const {
  w.u32(1);  // section version
  w.u64(mmcqd_);
  w.b(active_);
  w.f64(latency_multiplier_);
  w.f64(error_rate_);
  w.u64(counters_.reads);
  w.u64(counters_.writes);
  w.u64(counters_.read_bytes);
  w.u64(counters_.written_bytes);
  w.u64(counters_.io_errors);
  w.u64(counters_.io_retries);
  w.u64(queue_depth());
  for (std::size_t i = queue_head_; i < queue_.size(); ++i) {
    w.b(queue_[i].write);
    w.u64(queue_[i].bytes);
  }
  snapshot::write_rng(w, fault_rng_);
}

std::uint64_t StorageDevice::digest() const { return snapshot::state_digest(*this); }

}  // namespace mvqoe::storage
