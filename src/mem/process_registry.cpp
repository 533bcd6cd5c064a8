#include "mem/process_registry.hpp"

#include <algorithm>
#include <cassert>

namespace mvqoe::mem {

Pages pss_pages(const ProcessMem& process) noexcept {
  return process.anon_resident + process.file_resident;
}

namespace {

/// Add (sign +1) or take out (sign -1) one process's share of the kept
/// sums and the cached count.
void account(const ProcessMem& process, int sign, ReclaimSums& sums, int& cached) noexcept {
  if (!process.alive) return;
  if (process.oom_adj >= OomAdj::kCached) cached += sign;
  if (process.unevictable) return;  // pinned: not on the LRU at all
  sums.candidates += sign * (process.anon_resident + process.file_resident);
  sums.file += sign * process.file_resident;
  sums.unprotected_file += sign * droppable_file(process, false);
  sums.cold_anon[static_cast<std::size_t>(anon_band(process.oom_adj))] +=
      sign * cold_anon(process);
}

}  // namespace

template <typename Change>
void ProcessRegistry::update(ProcessMem& process, Change change) {
  account(process, -1, sums_, cached_);
  change(process);
  account(process, +1, sums_, cached_);
}

ProcessMem* ProcessRegistry::find_live(ProcessId pid) noexcept {
  const auto it = processes_.find(pid);
  return it != processes_.end() && it->second.alive ? &it->second : nullptr;
}

const ProcessMem& ProcessRegistry::add(ProcessId pid, std::string name, int oom_adj,
                                       std::function<void()> on_kill) {
  auto [it, inserted] = processes_.try_emplace(pid);
  assert((inserted || !it->second.alive) && "pid already registered and alive");
  ProcessMem& process = it->second;
  process = ProcessMem{};
  process.pid = pid;
  process.name = std::move(name);
  process.oom_adj = oom_adj;
  process.lru_seq = ++lru_clock_;
  process.on_kill = std::move(on_kill);
  if (inserted) {
    const auto pos = std::lower_bound(
        by_pid_.begin(), by_pid_.end(), pid,
        [](const ProcessMem* p, ProcessId key) { return p->pid < key; });
    by_pid_.insert(pos, &process);
  }
  alive_.push_back(&process);
  order_dirty_ = true;
  account(process, +1, sums_, cached_);
  return process;
}

const ProcessMem* ProcessRegistry::find(ProcessId pid) const noexcept {
  const auto it = processes_.find(pid);
  return it != processes_.end() && it->second.alive ? &it->second : nullptr;
}

bool ProcessRegistry::alive(ProcessId pid) const noexcept { return find(pid) != nullptr; }

void ProcessRegistry::touch(ProcessId pid) noexcept {
  if (ProcessMem* process = find_live(pid)) {
    process->lru_seq = ++lru_clock_;
    order_dirty_ = true;
  }
}

void ProcessRegistry::set_oom_adj(ProcessId pid, int adj) noexcept {
  if (ProcessMem* process = find_live(pid)) {
    update(*process, [adj](ProcessMem& p) { p.oom_adj = adj; });
    order_dirty_ = true;
  }
}

void ProcessRegistry::set_killable(ProcessId pid, bool killable) noexcept {
  if (ProcessMem* process = find_live(pid)) process->killable = killable;
}

void ProcessRegistry::set_unevictable(ProcessId pid, bool unevictable) noexcept {
  if (ProcessMem* process = find_live(pid)) {
    update(*process, [unevictable](ProcessMem& p) { p.unevictable = unevictable; });
  }
}

void ProcessRegistry::set_hot_pages(ProcessId pid, Pages hot) noexcept {
  if (ProcessMem* process = find_live(pid)) {
    update(*process, [hot](ProcessMem& p) { p.hot_pages = hot; });
  }
}

void ProcessRegistry::move_pages(const ProcessMem& process, const PageDelta& delta) noexcept {
  assert(find(process.pid) == &process && "not a live process of this registry");
  // Every ProcessMem handed out lives non-const in processes_.
  update(const_cast<ProcessMem&>(process), [&delta](ProcessMem& p) {
    p.anon_resident += delta.anon_resident;
    p.anon_swapped += delta.anon_swapped;
    p.file_resident += delta.file_resident;
    p.file_working_set += delta.file_working_set;
  });
}

ProcessRegistry::FreedPages ProcessRegistry::remove(ProcessId pid) {
  FreedPages freed;
  const auto it = processes_.find(pid);
  if (it == processes_.end() || !it->second.alive) return freed;
  ProcessMem& process = it->second;
  freed.anon = process.anon_resident;
  freed.swapped = process.anon_swapped;
  freed.file = process.file_resident;
  update(process, [](ProcessMem& p) {
    p.alive = false;
    p.anon_resident = 0;
    p.anon_swapped = 0;
    p.file_resident = 0;
  });
  const auto pos = std::find(alive_.begin(), alive_.end(), &process);
  assert(pos != alive_.end());
  *pos = alive_.back();  // swap-erase; scan order carries no meaning
  alive_.pop_back();
  order_dirty_ = true;
  return freed;
}

std::string ProcessRegistry::stale_sum() const {
  ReclaimSums walked;
  int walked_cached = 0;
  for (const ProcessMem* process : alive_) account(*process, +1, walked, walked_cached);
  const auto differs = [](const std::string& name, Pages kept, Pages walk) {
    return name + " kept " + std::to_string(kept) + " != walk " + std::to_string(walk);
  };
  if (cached_ != walked_cached) return differs("cached count", cached_, walked_cached);
  if (sums_.candidates != walked.candidates) {
    return differs("reclaim candidates", sums_.candidates, walked.candidates);
  }
  if (sums_.file != walked.file) return differs("file pages", sums_.file, walked.file);
  if (sums_.unprotected_file != walked.unprotected_file) {
    return differs("unprotected file pages", sums_.unprotected_file, walked.unprotected_file);
  }
  for (std::size_t band = 0; band < kAnonBands; ++band) {
    if (sums_.cold_anon[band] != walked.cold_anon[band]) {
      return differs("cold anon of band " + std::to_string(band), sums_.cold_anon[band],
                     walked.cold_anon[band]);
    }
  }
  return {};
}

std::optional<ProcessId> ProcessRegistry::pick_victim(int min_adj) const noexcept {
  // Highest oom_adj band first; within a band, the largest resident set
  // (classic low-memory-killer selection), coldest LRU as the tiebreak.
  const ProcessMem* best = nullptr;
  for (const ProcessMem* candidate : alive_) {
    const ProcessMem& process = *candidate;
    if (!process.killable || process.oom_adj < min_adj) continue;
    if (best == nullptr || process.oom_adj > best->oom_adj ||
        (process.oom_adj == best->oom_adj &&
         (pss_pages(process) > pss_pages(*best) ||
          (pss_pages(process) == pss_pages(*best) && process.lru_seq < best->lru_seq)))) {
      best = &process;
    }
  }
  return best != nullptr ? std::optional<ProcessId>(best->pid) : std::nullopt;
}

void ProcessRegistry::rebuild_order() {
  // Extract the sort keys into a flat array first (SoA): the sort then
  // compares inline values instead of dereferencing two ProcessMem
  // pointers per comparison.
  order_keys_.clear();
  for (const ProcessMem* p : alive_) {
    order_keys_.push_back(OrderKey{p->oom_adj, p->lru_seq, p->pid, p});
  }
  std::sort(order_keys_.begin(), order_keys_.end(), [](const OrderKey& a, const OrderKey& b) {
    if (a.oom_adj != b.oom_adj) return a.oom_adj > b.oom_adj;
    if (a.lru_seq != b.lru_seq) return a.lru_seq < b.lru_seq;
    return a.pid < b.pid;
  });
  order_cache_.clear();
  for (const OrderKey& k : order_keys_) order_cache_.push_back(k.process);
  order_dirty_ = false;
}

std::vector<const ProcessMem*> ProcessRegistry::all() const {
  std::vector<const ProcessMem*> out;
  out.reserve(alive_.size());
  for (const ProcessMem* process : by_pid_) {
    if (process->alive) out.push_back(process);
  }
  return out;
}

void ProcessRegistry::save(snapshot::ByteWriter& w) const {
  w.u32(1);  // section version
  w.u64(lru_clock_);
  w.u64(by_pid_.size());
  for (const ProcessMem* p : by_pid_) {
    w.u32(p->pid);
    w.str(p->name);
    w.i32(p->oom_adj);
    w.i64(p->anon_resident);
    w.i64(p->anon_swapped);
    w.i64(p->file_resident);
    w.i64(p->file_working_set);
    w.i64(p->hot_pages);
    w.u64(p->lru_seq);
    w.b(p->alive);
    w.b(p->killable);
    w.b(p->unevictable);
  }
}

}  // namespace mvqoe::mem
