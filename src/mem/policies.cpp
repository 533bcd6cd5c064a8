// The registered reclaim/kill policy variants (DESIGN.md §16). Every
// policy plans its batches through one planner, plan_reclaim(). The
// baseline plan and its cpu_refus expression are arithmetic-for-
// arithmetic those of the pre-policy MemoryManager, which keeps golden
// blobs and every BENCH_fig* JSON byte-identical.
#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "mem/policy.hpp"
#include "sched/scheduler.hpp"

namespace mvqoe::mem {

namespace {

// --- the planner -------------------------------------------------------------

/// One scan batch, for every policy. A policy supplies only its batch
/// size when calm and when desperate (below the service minfree level,
/// where working-set protection lifts), `admit` (swap admission: the
/// oom_adj bands it compresses), `compress_order()` (asked for only when
/// a batch reaches that step), `tier_of(process)` and the CPU cost per
/// compressed page of each tier. The registry keeps the sums the
/// efficiency estimate reads, so the batch walks processes only to pick
/// pages, and each walk stops once the pages the sums say are left run
/// out.
template <typename CompressOrder, typename TierOf>
void plan_reclaim(const MemoryConfig& config, ReclaimView& view, ReclaimPlan& plan,
                  const std::array<Pages, 2>& calm_desperate_budget, BandMask admit,
                  CompressOrder compress_order, TierOf tier_of,
                  const std::array<double, 2>& tier_cpu_refus) {
  const bool desperate = view.available < config.minfree_service;
  const Pages budget = calm_desperate_budget[desperate];
  plan.scanned = budget;
  plan.file_drops.clear();
  plan.compress.clear();
  plan.writeback = 0;

  // Scan efficiency: the reclaimer walks `budget` LRU candidates; only
  // the reclaimable fraction of the candidate pool yields pages. When
  // most resident pages are hot working sets, a batch scans a lot and
  // frees little — this ratio IS the paper's pressure metric
  // P = (1 - reclaimed/scanned) * 100 (§2), and it is why reclaim slows
  // to a crawl (and direct-reclaim stalls stretch) under real pressure.
  const ReclaimSums& sums = view.registry.sums();
  Pages droppable_left = desperate ? sums.file : sums.unprotected_file;
  Pages cold_left = sums.cold_anon_in(admit);
  const Pages zram_headroom = config.zram_capacity - view.zram_stored;
  const Pages reclaimable = droppable_left + std::min(cold_left, zram_headroom) +
                            (view.file_dirty - view.dirty_in_flight);
  const Pages candidates = sums.candidates + view.file_dirty;
  const double efficiency =
      candidates > 0 ? static_cast<double>(reclaimable) / static_cast<double>(candidates) : 0.0;
  Pages remaining = sim::ceil_int(static_cast<double>(budget) * std::min(1.0, efficiency));

  // 1. Drop clean file pages, coldest/lowest-priority processes first.
  if (remaining > 0 && droppable_left > 0) {
    for (const ProcessMem* process : view.registry.reclaim_order()) {
      if (remaining <= 0 || droppable_left <= 0) break;
      if (process->unevictable) continue;  // pinned: not on the LRU at all
      const Pages droppable = droppable_file(*process, desperate);
      droppable_left -= droppable;
      const Pages take = std::min(droppable, remaining);
      if (take <= 0) continue;
      plan.file_drops.push_back({process, take});
      remaining -= take;
    }
  }

  // 2. Compress admitted anonymous pages into zRAM (CPU work).
  std::array<Pages, 2> tier_pages = {0, 0};
  if (remaining > 0 && cold_left > 0) {
    Pages zram_space = zram_headroom;
    for (const ProcessMem* process : compress_order()) {
      if (remaining <= 0 || zram_space <= 0 || cold_left <= 0) break;
      if (process->unevictable || !admits(admit, process->oom_adj)) continue;
      const Pages cold = cold_anon(*process);
      cold_left -= cold;
      const Pages take = std::min({cold, remaining, zram_space});
      if (take <= 0) continue;
      const int tier = tier_of(*process);
      plan.compress.push_back({process, take, tier});
      tier_pages[tier] += take;
      remaining -= take;
      zram_space -= take;
    }
  }

  // 3. Queue dirty file pages for writeback through the storage stack.
  if (remaining > 0) {
    const Pages dirty_available = view.file_dirty - view.dirty_in_flight;
    const Pages writeback = std::min(remaining, dirty_available);
    if (writeback > 0) plan.writeback = writeback;
  }

  plan.cpu_refus = static_cast<double>(plan.scanned) * config.scan_cpu_refus +
                   static_cast<double>(tier_pages[0]) * tier_cpu_refus[0] +
                   static_cast<double>(tier_pages[1]) * tier_cpu_refus[1];
}

// --- baseline, swam and partitioned ------------------------------------------

/// A single-tier store planned in reclaim order. The three policies
/// differ only in their swap admission: baseline admits every band,
/// swam all but the cached band, partitioned all but the band up to
/// perceptible.
class SingleTierReclaim final : public ReclaimPolicy {
 public:
  SingleTierReclaim(const MemoryConfig& config, BandMask admit)
      : ReclaimPolicy(config), admit_(admit) {}

  void plan_batch(ReclaimView& view, ReclaimPlan& plan) override {
    plan_reclaim(
        config_, view, plan, {config_.kswapd_batch, config_.kswapd_batch}, admit_,
        [&view]() -> const std::vector<const ProcessMem*>& {
          return view.registry.reclaim_order();
        },
        [](const ProcessMem&) { return 0; },
        {config_.compress_cpu_refus, config_.compress_cpu_refus});
  }

 private:
  BandMask admit_;
};

// --- swam (arXiv 2306.08345) -------------------------------------------------

/// Victim selection by relaunch cost: among eligible processes, kill the
/// one freeing the most pages per unit of relaunch pain (cached apps
/// relaunch almost free; killing the foreground costs a full cold
/// start). Ties keep the reclaim-order winner (higher adj, colder LRU),
/// so selection is deterministic.
class SwamKill final : public KillPolicy {
 public:
  using KillPolicy::KillPolicy;

  std::optional<ProcessId> pick_victim(ProcessRegistry& registry, int min_adj) override {
    const ProcessMem* best = nullptr;
    double best_score = -1.0;
    for (const ProcessMem* process : registry.reclaim_order()) {
      if (!process->killable || process->oom_adj < min_adj) continue;
      const double freed = static_cast<double>(process->anon_resident +
                                               process->file_resident + process->anon_swapped);
      const double score = freed / relaunch_weight(process->oom_adj);
      if (score > best_score) {
        best_score = score;
        best = process;
      }
    }
    if (best == nullptr) return std::nullopt;
    return best->pid;
  }

  static double relaunch_weight(int adj) noexcept {
    if (adj >= OomAdj::kCached) return 1.0;
    if (adj >= OomAdj::kService) return 4.0;
    if (adj >= OomAdj::kPerceptible) return 16.0;
    if (adj >= OomAdj::kVisible) return 32.0;
    return 64.0;
  }
};

// --- ariadne (arXiv 2502.12826) ----------------------------------------------

/// Hotness-aware size-adaptive compressed swap: a per-process hotness
/// EMA (recent CPU consumption sampled from the scheduler each batch)
/// orders compression coldest-process-first into two zRAM tiers — a
/// high-ratio/slow tier for cold processes and a low-ratio/fast tier for
/// warm ones — and the batch size doubles when the system is desperate.
/// Carries real state (hotness EMAs, per-process tier counts), so it
/// registers an MPOL snapshot section.
class AriadneReclaim final : public ReclaimPolicy {
 public:
  AriadneReclaim(const MemoryConfig& config, double hot_cut_refus, double cold_ratio,
                 double warm_ratio, double cold_cpu_refus, double warm_cpu_refus)
      : ReclaimPolicy(config),
        hot_cut_refus_(hot_cut_refus),
        cold_ratio_(cold_ratio),
        warm_ratio_(warm_ratio),
        cold_cpu_refus_(cold_cpu_refus),
        warm_cpu_refus_(warm_cpu_refus) {}

  void attach_scheduler(const sched::Scheduler* scheduler) override { scheduler_ = scheduler; }

  void plan_batch(ReclaimView& view, ReclaimPlan& plan) override {
    sample_hotness();
    // Size-adaptive batching: scan twice as hard when desperate.
    plan_reclaim(
        config_, view, plan, {config_.kswapd_batch, config_.kswapd_batch * 2}, kAllBands,
        [&]() -> const std::vector<const ProcessMem*>& { return coldest_first(view.registry); },
        [this](const ProcessMem& process) {
          return hotness_of(process.pid) <= hot_cut_refus_ ? 0 : 1;
        },
        {cold_cpu_refus_, warm_cpu_refus_});
  }

  Pages zram_physical(Pages stored) const noexcept override {
    (void)stored;  // == cold_stored_ + warm_stored_ (conservation-checked)
    return sim::ceil_int(static_cast<double>(cold_stored_) / cold_ratio_) +
           sim::ceil_int(static_cast<double>(warm_stored_) / warm_ratio_);
  }

  void note_swap_out(ProcessId pid, Pages pages, int tier) override {
    TierCount& count = stored_[pid];
    if (tier == 0) {
      count.cold += pages;
      cold_stored_ += pages;
    } else {
      count.warm += pages;
      warm_stored_ += pages;
    }
  }

  void note_swap_release(ProcessId pid, Pages pages) override {
    const auto it = stored_.find(pid);
    if (it == stored_.end()) return;
    // Warm pages come back first: the fast tier doubles as the staging
    // area for likely-soon faults.
    const Pages from_warm = std::min(pages, it->second.warm);
    it->second.warm -= from_warm;
    warm_stored_ -= from_warm;
    const Pages from_cold = std::min(pages - from_warm, it->second.cold);
    it->second.cold -= from_cold;
    cold_stored_ -= from_cold;
    if (it->second.cold == 0 && it->second.warm == 0) stored_.erase(it);
  }

  bool has_state() const noexcept override { return true; }

  void save(snapshot::ByteWriter& w) const override {
    w.u32(1);  // ariadne state version
    w.i64(cold_stored_);
    w.i64(warm_stored_);
    w.u64(stored_.size());
    for (const auto& [pid, count] : stored_) {
      w.u32(pid);
      w.i64(count.cold);
      w.i64(count.warm);
    }
    // The hotness EMAs, then the CPU totals, each in pid order.
    w.u64(rows_.size());
    for (const HotRow& row : rows_) {
      w.u32(row.pid);
      w.f64(row.hot);
    }
    w.u64(rows_.size());
    for (const HotRow& row : rows_) {
      w.u32(row.pid);
      w.f64(row.prev_cpu);
    }
  }

 private:
  /// One process's hotness state. rows_ is sorted by pid, the order
  /// save() writes them in.
  struct HotRow {
    ProcessId pid = 0;
    double prev_cpu = 0.0;  ///< the CPU total the last sample read
    double hot = 0.0;       ///< hotness EMA
  };
  /// A thread and its process. pid_threads_ is sorted by (pid, tid), so
  /// each row's threads form one run, in ascending tid order.
  struct PidThread {
    ProcessId pid;
    sched::ThreadId tid;
  };
  /// coldest_first()'s sort key, read once per process.
  struct ColdKey {
    double hot;
    std::uint64_t lru_seq;
    const ProcessMem* process;
  };

  /// The row of `pid`, or where it would be inserted.
  std::vector<HotRow>::const_iterator find_row(ProcessId pid) const noexcept {
    return std::lower_bound(rows_.begin(), rows_.end(), pid,
                            [](const HotRow& row, ProcessId p) { return row.pid < p; });
  }

  double hotness_of(ProcessId pid) const noexcept {
    const auto it = find_row(pid);
    return it != rows_.end() && it->pid == pid ? it->hot : 0.0;
  }

  /// Compression order: coldest process first (hotness asc, unique
  /// lru_seq breaks ties → deterministic total order). Refills two
  /// reused vectors.
  const std::vector<const ProcessMem*>& coldest_first(ProcessRegistry& registry) {
    keys_.clear();
    for (const ProcessMem* process : registry.reclaim_order()) {
      if (!process->unevictable) {
        keys_.push_back({hotness_of(process->pid), process->lru_seq, process});
      }
    }
    std::sort(keys_.begin(), keys_.end(), [](const ColdKey& a, const ColdKey& b) {
      return a.hot != b.hot ? a.hot < b.hot : a.lru_seq < b.lru_seq;
    });
    order_.clear();
    for (const ColdKey& key : keys_) order_.push_back(key.process);
    return order_;
  }

  /// Fold the scheduler's cumulative per-thread CPU counters into a
  /// per-process hotness EMA (one sample per batch). A row's total adds
  /// its threads' counters in ascending tid order, which fixes how each
  /// total rounds; terminated threads keep their final counters, so
  /// deltas stay non-negative.
  void sample_hotness() {
    if (scheduler_ == nullptr) return;  // Immediate mode: LRU order only
    while (pid_threads_.size() < scheduler_->thread_count()) {
      index_thread(static_cast<sched::ThreadId>(pid_threads_.size() + 1));
    }
    auto thread = pid_threads_.cbegin();
    for (HotRow& row : rows_) {
      double total = 0.0;
      for (; thread != pid_threads_.cend() && thread->pid == row.pid; ++thread) {
        total += scheduler_->counters(thread->tid).cpu_refus_consumed;
      }
      const double delta = total - row.prev_cpu;
      row.prev_cpu = total;
      row.hot = 0.5 * row.hot + 0.5 * delta;
    }
  }

  /// Index a new thread behind its process's others, and give a new pid
  /// its row in pid order.
  void index_thread(sched::ThreadId tid) {
    const ProcessId pid = scheduler_->pid_of(tid);
    pid_threads_.insert(std::upper_bound(pid_threads_.begin(), pid_threads_.end(), pid,
                                         [](ProcessId p, const PidThread& t) { return p < t.pid; }),
                        {pid, tid});
    const auto row = find_row(pid);
    if (row == rows_.end() || row->pid != pid) rows_.insert(row, {pid});
  }

  struct TierCount {
    Pages cold = 0;
    Pages warm = 0;
  };

  const sched::Scheduler* scheduler_ = nullptr;
  double hot_cut_refus_;
  double cold_ratio_;
  double warm_ratio_;
  double cold_cpu_refus_;
  double warm_cpu_refus_;
  Pages cold_stored_ = 0;
  Pages warm_stored_ = 0;
  std::map<ProcessId, TierCount> stored_;
  std::vector<HotRow> rows_;
  std::vector<PidThread> pid_threads_;
  std::vector<ColdKey> keys_;  ///< coldest_first()'s buffers
  std::vector<const ProcessMem*> order_;
};

// --- factory -----------------------------------------------------------------

KillCharter base_charter(const MemPolicySpec& spec, const MemoryConfig& config) {
  KillCharter charter;
  charter.policy_name = spec.name;
  charter.kill_threshold = config.lmkd_kill_threshold;
  charter.foreground_threshold = config.lmkd_foreground_threshold;
  charter.background_adj_floor = config.lmkd_background_adj_floor;
  charter.minfree_cached = config.minfree_cached;
  charter.minfree_service = config.minfree_service;
  charter.minfree_perceptible = config.minfree_perceptible;
  charter.minfree_foreground = config.minfree_foreground;
  return charter;
}

}  // namespace

std::unique_ptr<MemPolicy> make_mem_policy(const MemPolicySpec& spec,
                                           const MemoryConfig& config) {
  KillCharter charter = base_charter(spec, config);
  const std::string owner = "mem policy '" + spec.name + "'";
  const auto param = [&spec](const char* key) { return snapshot::find_param(spec.params, key); };
  if (spec.name == "baseline") {
    snapshot::check_params(owner, spec.params, {});
    return std::make_unique<MemPolicy>(spec,
                                       std::make_unique<SingleTierReclaim>(config, kAllBands),
                                       std::make_unique<KillPolicy>(std::move(charter)));
  }
  if (spec.name == "swam") {
    snapshot::check_params(owner, spec.params, {"swap_full_fraction", "kill_cooldown_ms"});
    charter.victim_rule = KillCharter::VictimRule::FloorOnly;
    const double fraction = param("swap_full_fraction").value_or(0.85);
    if (fraction <= 0.0 || fraction > 1.0) {
      throw std::invalid_argument("mem policy 'swam': swap_full_fraction must be in (0, 1]");
    }
    charter.swap_full_kill_fraction = fraction;
    const double cooldown_ms = param("kill_cooldown_ms").value_or(250.0);
    if (cooldown_ms < 0.0) {
      throw std::invalid_argument("mem policy 'swam': kill_cooldown_ms must be >= 0");
    }
    // sim::msec scales the rounded ms to µs.
    snapshot::check_fits(owner, "kill_cooldown_ms", std::round(cooldown_ms) * 1000.0, 0x1p63);
    charter.kill_cooldown = sim::msec(static_cast<std::int64_t>(std::llround(cooldown_ms)));
    // Swap admission: cached apps are kill-fodder — compressing them
    // wastes zRAM space and CPU on pages a cheap relaunch would
    // regenerate (swap_full_kill_fraction is the other half of the joint
    // decision).
    const BandMask below_cached =
        band_bit(AnonBand::UpToPerceptible) | band_bit(AnonBand::Between);
    return std::make_unique<MemPolicy>(spec,
                                       std::make_unique<SingleTierReclaim>(config, below_cached),
                                       std::make_unique<SwamKill>(std::move(charter)));
  }
  if (spec.name == "ariadne") {
    snapshot::check_params(owner, spec.params,
                           {"hot_cut_refus", "cold_ratio", "warm_ratio", "cold_cpu_refus",
                            "warm_cpu_refus"});
    const double hot_cut = param("hot_cut_refus").value_or(500.0);
    const double cold_ratio = param("cold_ratio").value_or(3.9);
    const double warm_ratio = param("warm_ratio").value_or(2.2);
    const double cold_cpu = param("cold_cpu_refus").value_or(34.0);
    const double warm_cpu = param("warm_cpu_refus").value_or(14.0);
    if (cold_ratio < 1.0 || warm_ratio < 1.0) {
      throw std::invalid_argument("mem policy 'ariadne': compression ratios must be >= 1");
    }
    if (cold_cpu < 0.0 || warm_cpu < 0.0 || hot_cut < 0.0) {
      throw std::invalid_argument("mem policy 'ariadne': CPU costs and hot cut must be >= 0");
    }
    return std::make_unique<MemPolicy>(
        spec,
        std::make_unique<AriadneReclaim>(config, hot_cut, cold_ratio, warm_ratio, cold_cpu,
                                         warm_cpu),
        std::make_unique<KillPolicy>(std::move(charter)));
  }
  if (spec.name == "partitioned") {
    snapshot::check_params(owner, spec.params, {"reserve_mb"});
    charter.reserve_pages = config.minfree_perceptible;
    if (const std::optional<double> reserve_mb = param("reserve_mb")) {
      if (*reserve_mb < 0.0) {
        throw std::invalid_argument("mem policy 'partitioned': reserve_mb must be >= 0");
      }
      // pages_from_mb scales the rounded MB to bytes first.
      snapshot::check_fits(owner, "reserve_mb", std::round(*reserve_mb) * 0x1p20, 0x1p63);
      charter.reserve_pages = pages_from_mb(static_cast<std::int64_t>(std::llround(*reserve_mb)));
    }
    // The foreground/visible/perceptible partition is never compressed,
    // so the user-facing app never pays decompression stalls.
    const BandMask above_perceptible = band_bit(AnonBand::Between) | band_bit(AnonBand::Cached);
    return std::make_unique<MemPolicy>(
        spec, std::make_unique<SingleTierReclaim>(config, above_perceptible),
        std::make_unique<KillPolicy>(std::move(charter)));
  }
  throw std::invalid_argument("unknown mem policy '" + spec.name +
                              "' (known: baseline, swam, ariadne, partitioned)");
}

}  // namespace mvqoe::mem
