// Per-process memory accounting and oom_adj bookkeeping.
//
// Android classifies processes into priority groups scored by oom_adj
// (paper §2 "Killing of processes"); lmkd kills the highest-scored
// process when pressure demands it, and the count of *cached* processes
// remaining in the LRU drives the trim-signal level (paper footnote 6).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/types.hpp"
#include "snapshot/bytes.hpp"

namespace mvqoe::mem {

using ProcessId = std::uint32_t;

/// Field order is hot-first: every field a reclaim/victim scan reads sits
/// in the leading bytes, and the cold std::string/std::function members
/// (half the struct) are pushed to the tail so scans touch one cache line
/// per process instead of two.
struct ProcessMem {
  ProcessId pid = 0;
  int oom_adj = OomAdj::kCached;
  /// Resident anonymous (heap) pages.
  Pages anon_resident = 0;
  /// Anonymous pages compressed into zRAM.
  Pages anon_swapped = 0;
  /// Resident file-backed (code/resource) pages.
  Pages file_resident = 0;
  /// The process's file-backed working set: pages it re-touches while
  /// running. Evicting below this causes refaults (thrashing).
  Pages file_working_set = 0;
  /// Hot (actively-used / pinned) anonymous pages: kswapd will not
  /// compress below this floor — reclaim scanning them yields nothing,
  /// which is exactly how the reclaim-efficiency pressure P collapses
  /// when only working sets remain (paper §2: P high when few pages can
  /// be reclaimed). The MP Simulator's allocations are fully hot.
  Pages hot_pages = 0;
  /// LRU stamp; smaller = colder = reclaimed/killed first within a band.
  std::uint64_t lru_seq = 0;
  bool alive = true;
  /// lmkd may kill this process. The synthetic memory-pressure app is
  /// marked unkillable, matching the paper's methodology where the MP
  /// Simulator keeps pressure applied while victims die around it.
  bool killable = true;
  /// mlocked/pinned memory: excluded from the reclaim scanner's candidate
  /// pool entirely (kernel unevictable list). The MP Simulator's native
  /// allocations live here; ordinary hot working sets do NOT — they are
  /// scanned fruitlessly, which is what degrades reclaim efficiency.
  bool unevictable = false;
  // --- cold fields below: never read by the hot scans ---
  std::string name;
  /// Invoked when lmkd kills the process (after its memory is freed).
  std::function<void()> on_kill;
};

/// PSS proxy: resident anon + resident file pages. Shared-page
/// proportionality is folded into the calibrated footprints.
Pages pss_pages(const ProcessMem& process) noexcept;

/// Clean file pages a reclaim batch may drop. The active file list is
/// protected (workingset detection): roughly half of a process's file
/// working set survives eviction until the system is desperate.
inline Pages droppable_file(const ProcessMem& process, bool desperate) noexcept {
  const Pages protected_file =
      desperate ? 0 : std::min(process.file_resident, process.file_working_set / 2);
  return process.file_resident - protected_file;
}

/// Anonymous pages a batch may compress: only pages outside the owner's
/// hot working set.
inline Pages cold_anon(const ProcessMem& process) noexcept {
  return std::max<Pages>(0, process.anon_resident - process.hot_pages);
}

/// The three oom_adj bands swap admission tells apart: the foreground
/// up to perceptible, the services between, and the cached LRU. Every
/// policy admits a union of them (a BandMask).
enum class AnonBand : std::uint8_t { UpToPerceptible = 0, Between = 1, Cached = 2 };
inline constexpr std::size_t kAnonBands = 3;

constexpr AnonBand anon_band(int oom_adj) noexcept {
  if (oom_adj <= OomAdj::kPerceptible) return AnonBand::UpToPerceptible;
  return oom_adj < OomAdj::kCached ? AnonBand::Between : AnonBand::Cached;
}

/// A set of AnonBands, one bit per band.
using BandMask = std::uint8_t;
constexpr BandMask band_bit(AnonBand band) noexcept {
  return static_cast<BandMask>(1u << static_cast<unsigned>(band));
}
inline constexpr BandMask kAllBands = 0b111;
constexpr bool admits(BandMask mask, int oom_adj) noexcept {
  return (mask & band_bit(anon_band(oom_adj))) != 0;
}

/// Exact sums over live evictable processes (alive, not unevictable) —
/// everything a reclaim batch's efficiency estimate reads, kept by the
/// registry as its fields change so a batch never walks to add them up.
struct ReclaimSums {
  /// The scanner's candidate pool: anon_resident + file_resident.
  Pages candidates = 0;
  /// file_resident: what a desperate batch may drop.
  Pages file = 0;
  /// droppable_file(process, false): what a calm batch may drop.
  Pages unprotected_file = 0;
  /// cold_anon(process), per AnonBand.
  std::array<Pages, kAnonBands> cold_anon{};

  /// Cold anonymous pages in the admitted bands.
  Pages cold_anon_in(BandMask mask) const noexcept {
    Pages total = 0;
    for (std::size_t band = 0; band < kAnonBands; ++band) {
      if ((mask & band_bit(static_cast<AnonBand>(band))) != 0) total += cold_anon[band];
    }
    return total;
  }
};

/// Signed changes to one process's page counters (zero = unchanged).
struct PageDelta {
  Pages anon_resident = 0;
  Pages anon_swapped = 0;
  Pages file_resident = 0;
  Pages file_working_set = 0;
};

/// Owner of every process's memory record. It hands out only const
/// ProcessMem: each field the reclaim sums or the cached count read
/// (page counters, hot_pages, unevictable, oom_adj, alive) changes
/// through a method here, which keeps sums() and cached_count() exact,
/// so a write that skips that bookkeeping does not compile.
class ProcessRegistry {
 public:
  /// Register a process; replaces any dead entry with the same pid.
  /// Registering an *alive* pid twice is a programming error.
  const ProcessMem& add(ProcessId pid, std::string name, int oom_adj,
                        std::function<void()> on_kill = nullptr);

  const ProcessMem* find(ProcessId pid) const noexcept;
  bool alive(ProcessId pid) const noexcept;

  /// Mark most-recently-used (moves to the hot end of the LRU).
  void touch(ProcessId pid) noexcept;
  void set_oom_adj(ProcessId pid, int adj) noexcept;
  void set_killable(ProcessId pid, bool killable) noexcept;
  void set_unevictable(ProcessId pid, bool unevictable) noexcept;
  /// The hot anon floor, as given (MemoryManager::set_hot_pages clamps).
  void set_hot_pages(ProcessId pid, Pages hot) noexcept;
  /// Apply page-counter changes to a live process this registry handed
  /// out.
  void move_pages(const ProcessMem& process, const PageDelta& delta) noexcept;

  /// Remove from the registry, returning the pages it held.
  struct FreedPages {
    Pages anon = 0;
    Pages swapped = 0;
    Pages file = 0;
  };
  FreedPages remove(ProcessId pid);

  /// Number of live processes with oom_adj >= OomAdj::kCached — the
  /// cached/empty LRU count that drives trim levels. Kept, not counted.
  int cached_count() const noexcept { return cached_; }

  /// The kept reclaim sums (see ReclaimSums).
  const ReclaimSums& sums() const noexcept { return sums_; }

  /// Recount sums() and cached_count() by walking every live process;
  /// names the first kept value that differs from the walk, empty when
  /// all agree (the mem-conservation oracle's check).
  std::string stale_sum() const;

  /// lmkd victim selection: the live killable process with the highest
  /// oom_adj at or above `min_adj` (coldest LRU breaks ties). Returns
  /// nullopt when no process qualifies.
  std::optional<ProcessId> pick_victim(int min_adj) const noexcept;

  /// Reclaim-order iteration: live processes sorted by (oom_adj desc,
  /// LRU cold-first) — kswapd takes pages from these before warmer ones.
  /// The order is cached and only rebuilt after a mutation that can
  /// change it (add/remove/touch/set_oom_adj): reclaim batches mutate
  /// nothing but page counters, so back-to-back batches share one sort.
  /// The reference is invalidated by the next mutation.
  const std::vector<const ProcessMem*>& reclaim_order() {
    if (order_dirty_) rebuild_order();
    return order_cache_;
  }

  std::vector<const ProcessMem*> all() const;
  std::size_t live_count() const noexcept { return alive_.size(); }

  /// Serialize every process sorted by pid — the unordered_map's bucket
  /// layout must not leak into the bytes. on_kill closures are not
  /// serializable and are excluded (see DESIGN.md §10).
  void save(snapshot::ByteWriter& w) const;

 private:
  ProcessMem* find_live(ProcessId pid) noexcept;
  void rebuild_order();
  /// Every change to a field the sums read goes through here: the
  /// process's share is taken out, `change` runs, and the new share is
  /// put back.
  template <typename Change>
  void update(ProcessMem& process, Change change);

  /// Stable owner: values never move, so ProcessMem pointers handed out
  /// by find()/reclaim_order() stay valid for the registry's lifetime.
  std::unordered_map<ProcessId, ProcessMem> processes_;
  /// Dense scan index of live processes (membership order): the hot
  /// iteration surface for pick_victim and stale_sum, replacing sparse
  /// hash-bucket walks. Order is irrelevant — every consumer either
  /// sums or resolves ties through the unique lru_seq.
  std::vector<ProcessMem*> alive_;
  /// Every entry (dead included) sorted by pid, maintained by sorted
  /// insert on first registration — save()/all() no longer sort.
  std::vector<ProcessMem*> by_pid_;
  /// reclaim_order() cache; rebuilt lazily from SoA-extracted sort keys
  /// (order_keys_ is the reused key buffer).
  std::vector<const ProcessMem*> order_cache_;
  struct OrderKey {
    int oom_adj;
    std::uint64_t lru_seq;
    ProcessId pid;
    const ProcessMem* process;
  };
  std::vector<OrderKey> order_keys_;
  bool order_dirty_ = true;
  std::uint64_t lru_clock_ = 0;
  ReclaimSums sums_;
  int cached_ = 0;
};

}  // namespace mvqoe::mem
