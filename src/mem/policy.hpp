// Pluggable reclaim/kill policy layer (DESIGN.md §16) — the "what if
// Android did X" swap/OOMK lab.
//
// The MemoryManager is split into a mechanism core (page pools,
// watermarks, the zRAM store, kswapd/lmkd threads, kill audits) and two
// policy interfaces this header defines:
//
//   * ReclaimPolicy — what one scan batch takes: which processes lose
//     clean file pages, which anonymous pages are compressed (and into
//     which zRAM tier), how much dirty writeback is queued, and what the
//     batch costs in CPU. The policy *plans*; the mechanism applies the
//     plan so page accounting stays in one place.
//   * KillPolicy — when lmkd kills and whom: the policy publishes its
//     decision rules as a declarative KillCharter (thresholds, minfree
//     ladder, cooldown, victim rule), and may override victim selection.
//
// The charter is the contract that keeps the src/check oracles honest
// across policies: `replay_kill_floor()` below is the single source of
// truth for the pressure/minfree band floor — the live KillPolicy and
// the lmkd-ordering oracle both call it, so the legality rules can never
// drift from the implementation.
//
// Registered variants (make_mem_policy):
//   baseline    — today's Android model, byte-identical to the
//                 pre-refactor MemoryManager (proven by golden blobs).
//   swam        — joint swap/OOMK management keyed on app relaunch cost
//                 (arXiv 2306.08345): swap admission skips kill-fodder
//                 cached apps, a nearly-full zRAM triggers background
//                 kills instead of thrashing, and the victim maximizes
//                 freed-pages per relaunch cost (FloorOnly rule).
//   ariadne     — hotness-aware size-adaptive compressed swap
//                 (arXiv 2502.12826): per-process hotness EMA fed from
//                 scheduler CPU counters orders compression coldest
//                 first into dual zRAM tiers (cold = high ratio / slow,
//                 warm = low ratio / fast), with adaptive batch sizing.
//   partitioned — reserved foreground partition in the spirit of
//                 arXiv 2101.10707: the foreground/perceptible set is
//                 never compressed and the kill ladder keeps a reserve
//                 carve-out for it.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mem/process_registry.hpp"
#include "mem/types.hpp"
#include "snapshot/params.hpp"

namespace mvqoe::sched {
class Scheduler;
}

namespace mvqoe::mem {

/// Which policy a world runs, as scenario data: a registered name plus
/// optional (key, value) parameter overrides. The default-constructed
/// spec is the baseline and serializes to *nothing* — SCEN blobs and
/// campaign fingerprints only grow a policy section when one is set.
struct MemPolicySpec {
  std::string name = "baseline";
  snapshot::Params params;

  bool is_baseline() const noexcept { return name == "baseline" && params.empty(); }

  friend bool operator==(const MemPolicySpec& a, const MemPolicySpec& b) {
    return a.name == b.name && a.params == b.params;
  }
};

/// The shared (name, params) codec (snapshot/params.hpp).
inline void save_policy_spec(snapshot::ByteWriter& w, const MemPolicySpec& spec) {
  snapshot::save_named_params(w, spec.name, spec.params);
}
inline MemPolicySpec load_policy_spec(snapshot::ByteReader& r) {
  MemPolicySpec spec;
  snapshot::load_named_params(r, spec.name, spec.params);
  return spec;
}

/// Registered policy names, factory order (docs, CLIs, the fuzzer's
/// policy axis).
const std::vector<std::string>& mem_policy_names();

/// Throws std::invalid_argument on an unknown policy name, a parameter
/// the named policy does not declare, one given twice, or a value that
/// is not finite or out of the parameter's range.
void validate_policy_spec(const MemPolicySpec& spec);

/// replay_kill_floor() result when no band demands a kill.
inline constexpr int kNoKillFloor = std::numeric_limits<int>::max();

/// A KillPolicy's decision rules, published as plain data so the
/// lmkd-ordering oracle can replay every kill decision without touching
/// the simulator. Field defaults mirror MemoryConfig's defaults — a
/// default-constructed charter IS the baseline on the 1 GB preset
/// (mem_policy_test pins this equivalence).
struct KillCharter {
  /// How lmkd picks among eligible victims.
  enum class VictimRule : std::uint8_t {
    HighestAdj = 0,  ///< highest killable oom_adj, coldest LRU ties (Android)
    FloorOnly = 1,   ///< any process at/above the floor (policy scoring)
  };

  std::string policy_name = "baseline";
  /// vmpressure bands: P > kill_threshold kills background processes,
  /// P >= foreground_threshold makes the foreground eligible.
  double kill_threshold = 60.0;
  double foreground_threshold = 95.0;
  int background_adj_floor = OomAdj::kService;
  /// minfree ladder on available memory (free + file cache).
  Pages minfree_cached = pages_from_mb(44);
  Pages minfree_service = pages_from_mb(28);
  Pages minfree_perceptible = pages_from_mb(19);
  Pages minfree_foreground = pages_from_mb(12);
  /// Minimum spacing between lmkd kills.
  sim::Time kill_cooldown = sim::msec(150);
  VictimRule victim_rule = VictimRule::HighestAdj;
  /// Foreground-partition reserve: the background minfree levels fire as
  /// if `reserve_pages` of available memory were already spoken for
  /// (partitioned policy; 0 = no reserve, the ladder is Android's).
  Pages reserve_pages = 0;
  /// Foreground eligibility at critical P requires swap to be nearly
  /// exhausted (lmkd's swap_free_low_percentage check) — or only the
  /// minfree bottom when disabled.
  bool swap_aware_escalation = true;
  /// zRAM fill fraction at which background kills start regardless of
  /// pressure (swam's joint swap/kill decision; 1.0 = never).
  double swap_full_kill_fraction = 1.0;
};

/// The charter a given spec would run with (oracle fixtures, docs).
KillCharter kill_charter_for(const MemPolicySpec& spec, const MemoryConfig& config);

/// The pressure/minfree band floor a charter dictates for the given
/// decision inputs, kNoKillFloor when no kill is due. Single source of
/// truth: the live lmkd eligibility check and the lmkd-ordering oracle's
/// replay both call this.
int replay_kill_floor(const KillCharter& charter, double pressure, Pages available,
                      Pages zram_stored, Pages zram_capacity) noexcept;

/// Pool state a reclaim policy plans against: the registry's kept sums
/// and its reclaim order (non-const: the order is rebuilt lazily).
struct ReclaimView {
  ProcessRegistry& registry;
  Pages available = 0;
  Pages zram_stored = 0;
  Pages file_dirty = 0;
  Pages dirty_in_flight = 0;
};

/// What one scan batch takes. The mechanism applies the plan in order:
/// file drops, then compressions (charging zRAM physical growth against
/// the freed total per take), then writeback submission. `cpu_refus` is
/// the batch's total CPU cost (scan, then tier 0, then tier 1) — one
/// double, so the baseline's scan+compress expression stays bit-exact.
/// The manager owns one plan and every batch refills it, so the take
/// vectors keep their capacity.
struct ReclaimPlan {
  struct FileTake {
    const ProcessMem* process = nullptr;
    Pages pages = 0;
  };
  struct CompressTake {
    const ProcessMem* process = nullptr;
    Pages pages = 0;
    int tier = 0;  ///< zRAM tier (policies with tiered stores; baseline: 0)
  };
  Pages scanned = 0;
  std::vector<FileTake> file_drops;
  std::vector<CompressTake> compress;
  Pages writeback = 0;
  double cpu_refus = 0.0;
};

class ReclaimPolicy {
 public:
  virtual ~ReclaimPolicy() = default;

  /// Decide what one scan batch reclaims, overwriting every field of
  /// `plan`. Cannot mutate page counters — the mechanism applies the
  /// plan.
  virtual void plan_batch(ReclaimView& view, ReclaimPlan& plan) = 0;

  /// Physical pages the zRAM store occupies for `stored` uncompressed
  /// pages. Called on every store mutation (the manager caches the
  /// result off the hot allocation path). Default: single tier at the
  /// configured compression ratio.
  virtual Pages zram_physical(Pages stored) const noexcept;

  /// Store bookkeeping hooks for policies with per-process/tiered state.
  virtual void note_swap_out(ProcessId pid, Pages pages, int tier) {
    (void)pid;
    (void)pages;
    (void)tier;
  }
  virtual void note_swap_release(ProcessId pid, Pages pages) {
    (void)pid;
    (void)pages;
  }

  /// Scheduled-mode wiring (hotness tracking); null in Immediate mode.
  virtual void attach_scheduler(const sched::Scheduler* scheduler) { (void)scheduler; }

  /// Policies with internal state beyond the mechanism's pools register
  /// an MPOL snapshot section so replay digests cover it.
  virtual bool has_state() const noexcept { return false; }
  virtual void save(snapshot::ByteWriter& w) const { (void)w; }

 protected:
  explicit ReclaimPolicy(const MemoryConfig& config) : config_(config) {}
  MemoryConfig config_;
};

class KillPolicy {
 public:
  explicit KillPolicy(KillCharter charter) : charter_(std::move(charter)) {}
  virtual ~KillPolicy() = default;

  const KillCharter& charter() const noexcept { return charter_; }

  /// lmkd victim among live killable processes with oom_adj >= min_adj.
  /// Default implements VictimRule::HighestAdj (Android). Overrides must
  /// stay consistent with the published victim_rule.
  virtual std::optional<ProcessId> pick_victim(ProcessRegistry& registry, int min_adj);

 protected:
  KillCharter charter_;
};

/// A policy bundle the MemoryManager owns: reclaim + kill halves and the
/// MPOL snapshot section (registered with the ComponentRegistry only
/// when the reclaim half carries state).
class MemPolicy {
 public:
  MemPolicy(MemPolicySpec spec, std::unique_ptr<ReclaimPolicy> reclaim,
            std::unique_ptr<KillPolicy> kill)
      : spec_(std::move(spec)), reclaim_(std::move(reclaim)), kill_(std::move(kill)) {}

  const std::string& name() const noexcept { return spec_.name; }
  const MemPolicySpec& spec() const noexcept { return spec_; }
  ReclaimPolicy& reclaim() noexcept { return *reclaim_; }
  const ReclaimPolicy& reclaim() const noexcept { return *reclaim_; }
  KillPolicy& kill() noexcept { return *kill_; }
  const KillCharter& charter() const noexcept { return kill_->charter(); }
  bool has_state() const noexcept { return reclaim_->has_state(); }

  void save(snapshot::ByteWriter& w) const;
  std::uint64_t digest() const;

 private:
  MemPolicySpec spec_;
  std::unique_ptr<ReclaimPolicy> reclaim_;
  std::unique_ptr<KillPolicy> kill_;
};

/// Build the named policy against a device's memory config. Throws
/// std::invalid_argument on an unknown name or parameter (same checks as
/// validate_policy_spec).
std::unique_ptr<MemPolicy> make_mem_policy(const MemPolicySpec& spec,
                                           const MemoryConfig& config);

}  // namespace mvqoe::mem
