#include "mem/policy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "snapshot/digest.hpp"

namespace mvqoe::mem {

const std::vector<std::string>& mem_policy_names() {
  static const std::vector<std::string> names = {"baseline", "swam", "ariadne", "partitioned"};
  return names;
}

void validate_policy_spec(const MemPolicySpec& spec) {
  // Construction performs the full name + per-policy parameter checks;
  // the config only scales thresholds and cannot affect validity.
  make_mem_policy(spec, MemoryConfig{});
}

int replay_kill_floor(const KillCharter& charter, double pressure, Pages available,
                      Pages zram_stored, Pages zram_capacity) noexcept {
  int min_adj = kNoKillFloor;
  if (pressure >= charter.foreground_threshold) {
    // Critical vmpressure makes the foreground eligible — but, as in
    // lmkd's swap_free_low_percentage check, only once swap (zRAM) is
    // nearly exhausted or available memory is truly scraping bottom.
    const bool swap_depleted =
        charter.swap_aware_escalation && zram_capacity - zram_stored < zram_capacity / 10;
    if (swap_depleted || available < charter.minfree_perceptible) {
      min_adj = OomAdj::kForeground;
    } else {
      min_adj = charter.background_adj_floor;
    }
  } else if (pressure > charter.kill_threshold) {
    min_adj = charter.background_adj_floor;
  }
  // Joint swap/kill decision (swam): once the zRAM store passes its fill
  // fraction, killing background apps beats compressing into a full pool.
  if (charter.swap_full_kill_fraction < 1.0) {
    const Pages full_mark = static_cast<Pages>(charter.swap_full_kill_fraction *
                                               static_cast<double>(zram_capacity));
    if (zram_stored >= full_mark) min_adj = std::min(min_adj, charter.background_adj_floor);
  }
  // minfree ladder. The background levels see available memory minus the
  // foreground reserve (partitioned; 0 = Android's ladder); the
  // foreground bottom level always reads the raw number — a reserve must
  // make background kills *earlier*, never delay saving the foreground.
  const Pages ladder_available = available - charter.reserve_pages;
  if (available < charter.minfree_foreground) {
    min_adj = std::min(min_adj, OomAdj::kForeground);
  } else if (ladder_available < charter.minfree_perceptible) {
    min_adj = std::min(min_adj, OomAdj::kPerceptible);
  } else if (ladder_available < charter.minfree_service) {
    min_adj = std::min(min_adj, OomAdj::kService);
  } else if (ladder_available < charter.minfree_cached) {
    min_adj = std::min(min_adj, OomAdj::kCached);
  }
  return min_adj;
}

Pages ReclaimPolicy::zram_physical(Pages stored) const noexcept {
  if (stored <= 0) return 0;
  return static_cast<Pages>(
      std::ceil(static_cast<double>(stored) / config_.zram_compression));
}

std::optional<ProcessId> KillPolicy::pick_victim(ProcessRegistry& registry, int min_adj) {
  return registry.pick_victim(min_adj);
}

void MemPolicy::save(snapshot::ByteWriter& w) const {
  w.u32(1);  // MPOL section version
  save_policy_spec(w, spec_);
  reclaim_->save(w);
}

std::uint64_t MemPolicy::digest() const { return snapshot::state_digest(*this); }

KillCharter kill_charter_for(const MemPolicySpec& spec, const MemoryConfig& config) {
  return make_mem_policy(spec, config)->charter();
}

}  // namespace mvqoe::mem
