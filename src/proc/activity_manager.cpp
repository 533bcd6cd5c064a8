#include "proc/activity_manager.hpp"

#include "snapshot/digest.hpp"

namespace mvqoe::proc {

ActivityManager::ActivityManager(mem::MemoryManager& memory) : memory_(memory) {}

void ActivityManager::boot(double system_scale, int cached_count) {
  system_scale_ = system_scale;
  for (const SystemProcessSpec& spec : system_processes(system_scale)) {
    const ProcessId pid = next_pid();
    system_pids_.push_back(pid);
    memory_.register_process(pid, spec.name, spec.oom_adj);
    memory_.registry().set_killable(pid, spec.killable);
    memory_.alloc_anon(pid, spec.heap_pages, 0, [this, pid, heap = spec.heap_pages](bool ok) {
      // System services keep about a third of their heap actively in use.
      if (ok) memory_.set_hot_pages(pid, heap / 3);
    });
    // Code plus cached resources (fonts, assets, databases): file-backed.
    memory_.map_file(pid, spec.code_pages + spec.heap_pages / 3, 0, nullptr);
  }
  for (AppSpec app : baseline_cached_apps(cached_count)) {
    // Cached footprints scale with the system image: Go-edition devices
    // retain much slimmer cached processes than flagship builds.
    app.heap_pages = static_cast<mem::Pages>(static_cast<double>(app.heap_pages) * system_scale);
    app.code_pages = static_cast<mem::Pages>(static_cast<double>(app.code_pages) * system_scale);
    const ProcessId pid = next_pid();
    memory_.register_process(pid, app.name, mem::OomAdj::kCached);
    memory_.alloc_anon(pid, app.heap_pages, 0, [this, pid, heap = app.heap_pages](bool ok) {
      if (ok) memory_.set_hot_pages(pid, heap / 10);
    });
    memory_.map_file(pid, app.code_pages + app.heap_pages / 3, 0, nullptr);
  }
}

ProcessId ActivityManager::launch(const AppSpec& app, std::function<void()> on_kill) {
  const ProcessId pid = next_pid();
  memory_.register_process(pid, app.name, mem::OomAdj::kForeground, std::move(on_kill));
  memory_.alloc_anon(pid, app.heap_pages, 0, [this, pid, heap = app.heap_pages](bool ok) {
    // A foreground app actively uses a large share of its heap.
    if (ok) memory_.set_hot_pages(pid, heap * 2 / 5);
  });
  memory_.map_file(pid, app.code_pages + app.heap_pages / 3, 0, nullptr);
  if (foreground_ != 0 && memory_.registry().alive(foreground_)) {
    move_to_background(foreground_);
  }
  foreground_ = pid;
  launched_.push_back(pid);
  return pid;
}

ProcessId ActivityManager::add_cached(const AppSpec& app) {
  AppSpec spec = app;
  spec.heap_pages =
      static_cast<mem::Pages>(static_cast<double>(spec.heap_pages) * system_scale_ / 3.0);
  spec.code_pages =
      static_cast<mem::Pages>(static_cast<double>(spec.code_pages) * system_scale_ / 2.0);
  const ProcessId pid = next_pid();
  memory_.register_process(pid, spec.name, mem::OomAdj::kCached);
  memory_.alloc_anon(pid, spec.heap_pages, 0, [this, pid, heap = spec.heap_pages](bool ok) {
    if (ok) memory_.set_hot_pages(pid, heap / 10);
  });
  memory_.map_file(pid, spec.code_pages + spec.heap_pages / 3, 0, nullptr);
  return pid;
}

void ActivityManager::move_to_background(ProcessId pid) {
  const mem::ProcessMem* process = memory_.registry().find(pid);
  if (process == nullptr) return;
  memory_.set_oom_adj(pid, mem::OomAdj::kCached);
  // A backgrounded app stops touching its heap: it becomes compressible.
  memory_.set_hot_pages(pid, (process->anon_resident + process->anon_swapped) / 20);
  if (foreground_ == pid) foreground_ = 0;
}

void ActivityManager::bring_to_foreground(ProcessId pid) {
  if (!memory_.registry().alive(pid)) return;
  if (foreground_ != 0 && foreground_ != pid && memory_.registry().alive(foreground_)) {
    move_to_background(foreground_);
  }
  memory_.set_oom_adj(pid, mem::OomAdj::kForeground);
  memory_.touch_lru(pid);
  if (const mem::ProcessMem* process = memory_.registry().find(pid)) {
    memory_.set_hot_pages(pid, (process->anon_resident + process->anon_swapped) * 2 / 5);
  }
  foreground_ = pid;
}

void ActivityManager::enable_respawn(sim::Engine& engine, int target, sim::Time period) {
  respawn_target_ = target;
  respawner_ = std::make_unique<sim::PeriodicTask>(engine, period, [this] { respawn_one(); });
  respawner_->start();
}

void ActivityManager::respawn_one() {
  if (memory_.registry().cached_count() >= respawn_target_) return;
  // Don't restart processes into a memory hole: wait until reclaim has at
  // least kept the system above the min watermark with a little headroom.
  if (memory_.free_pages() < 2 * memory_.config().watermark_min) return;
  const auto& pool = top_free_apps();
  AppSpec app = pool[respawn_cursor_ % pool.size()];
  ++respawn_cursor_;
  app.name += ".respawn" + std::to_string(respawns_);
  const ProcessId pid = next_pid();
  memory_.register_process(pid, app.name, mem::OomAdj::kCached);
  // Restarted cached processes come back trimmed, scaled to the system
  // image like the boot-time cached population.
  const auto heap = static_cast<mem::Pages>(static_cast<double>(app.heap_pages) * system_scale_ / 3.0);
  const auto code = static_cast<mem::Pages>(static_cast<double>(app.code_pages) * system_scale_ / 2.0);
  memory_.alloc_anon(pid, heap, 0, nullptr);
  memory_.map_file(pid, code, 0, nullptr);
  ++respawns_;
}

void ActivityManager::close(ProcessId pid) {
  if (foreground_ == pid) foreground_ = 0;
  memory_.exit_process(pid);
}

void ActivityManager::save(snapshot::ByteWriter& w) const {
  w.u32(1);  // section version
  w.u32(next_pid_);
  w.u32(foreground_);
  w.u64(launched_.size());
  for (const ProcessId pid : launched_) w.u32(pid);
  w.u64(system_pids_.size());
  for (const ProcessId pid : system_pids_) w.u32(pid);
  w.f64(system_scale_);
  w.i32(respawn_target_);
  w.u64(respawns_);
  w.u64(respawn_cursor_);
  w.b(respawner_ != nullptr && respawner_->running());
}

std::uint64_t ActivityManager::digest() const { return snapshot::state_digest(*this); }

}  // namespace mvqoe::proc
