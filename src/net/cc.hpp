// Pluggable congestion control for the shared-bottleneck link (ROADMAP
// item 3). The paper provisioned its WiFi testbed so the network was
// never the bottleneck (§4.1); opening this axis lets scenarios run
// memory pressure × network pressure jointly. A `NetSpec` names the
// controller that drives every flow on the link:
//
//   fifo   — the paper's serialized link, byte-identical to the
//            pre-refactor `Link` (no flow engine is instantiated);
//   cubic  — loss-based cwnd growth (Cubic window curve) against the
//            droptail bottleneck queue;
//   bbr    — BBR-style pacing-gain cycle off the measured bottleneck
//            bandwidth × min-RTT;
//   c4     — delay-based "most restrictive signal" in the spirit of the
//            C4 spec: of the delay, loss and bandwidth signals, the one
//            demanding the smallest window wins.
//
// Controllers are factory-registered by name and must be fully
// deterministic: state is plain arithmetic off (rtt, bytes_acked, loss)
// callbacks, serialized into the LINK v2 snapshot section for digesting.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "snapshot/params.hpp"

namespace mvqoe::net {

/// Which congestion controller the link's flows run, plus optional
/// name=value tuning parameters (mss, queue_kb, ...). The default spec
/// selects the legacy serialized FIFO path; everything downstream
/// (SCEN encoding, sweep/fleet config tails, snapshots) keeps its
/// historical bytes when `is_default()` holds.
struct NetSpec {
  std::string cc = "fifo";
  snapshot::Params params;

  bool is_default() const noexcept { return cc == "fifo" && params.empty(); }
};

/// The shared (name, params) codec (snapshot/params.hpp).
inline void save_net_spec(snapshot::ByteWriter& w, const NetSpec& spec) {
  snapshot::save_named_params(w, spec.cc, spec.params);
}
inline NetSpec load_net_spec(snapshot::ByteReader& r) {
  NetSpec spec;
  snapshot::load_named_params(r, spec.cc, spec.params);
  return spec;
}

/// Registered controller names, fifo first.
const std::vector<std::string>& cc_names();

/// Throws std::invalid_argument naming an unknown controller, a parameter
/// the named controller never reads (fifo reads none; cubic and bbr read
/// mss and queue_kb; c4 also c4_delay_target_us), one given twice, a
/// value that is not a finite number > 0, or one too large for its
/// integer conversion (queue_kb in bytes, c4_delay_target_us).
void validate_net_spec(const NetSpec& spec);

/// Per-flow congestion controller. The flow engine calls on_ack with
/// every in-order ACK (rtt sample in microseconds, bytes newly acked)
/// and on_loss when a drop is detected; the controller answers with a
/// congestion window in bytes and an optional pacing rate
/// (bytes/microsecond, 0 = unpaced, window-limited only).
class CongestionController {
 public:
  virtual ~CongestionController() = default;
  virtual const char* name() const noexcept = 0;
  virtual void on_ack(sim::Time rtt, std::uint64_t bytes_acked, sim::Time now) = 0;
  virtual void on_loss(sim::Time now) = 0;
  virtual double cwnd_bytes() const noexcept = 0;
  virtual double pacing_bytes_per_usec() const noexcept = 0;
  /// Serialize controller state for the LINK v2 section (digest only;
  /// restore is replay-based per DESIGN.md §10).
  virtual void save(snapshot::ByteWriter& w) const = 0;
};

/// Factory: construct the controller `spec` names for one flow.
/// Returns nullptr for "fifo" (the legacy path needs no controller);
/// throws std::runtime_error for unknown names.
std::unique_ptr<CongestionController> make_congestion_controller(const NetSpec& spec);

}  // namespace mvqoe::net
