// Application footprint catalog.
//
// Two uses in the paper's methodology we reproduce:
//   * §4.3 "organic memory pressure": opening 8 background applications
//     "selected from the top free applications available on Google Play
//     Store" (no games) before starting the video.
//   * §3 field study and the fleet: the usage model (fleet/device_session)
//     launches apps from this catalog according to each user's profile.
// Footprints are representative PSS figures for popular Android apps on
// low/mid-range devices (order tens to a couple hundred MB).
#pragma once

#include <string>
#include <vector>

#include "mem/types.hpp"

namespace mvqoe::proc {

struct AppSpec {
  std::string name;
  mem::Pages heap_pages = 0;        // anonymous memory on launch
  mem::Pages code_pages = 0;        // file-backed working set
  /// Heap growth while foreground, pages per second (browsing feeds,
  /// buffering media). Zero for mostly-static apps.
  mem::Pages growth_pages_per_sec = 0;
  bool is_game = false;
};

/// "Top free apps" style catalog (no games included in the first eight —
/// matching the paper's organic-pressure selection).
const std::vector<AppSpec>& top_free_apps();

/// Games (heavier), used only by the usage model.
const std::vector<AppSpec>& game_apps();

/// Streaming apps the usage model foregrounds (two video, one music):
/// heavier than the catalog average and growing while streaming.
const std::vector<AppSpec>& media_apps();

/// Always-running system processes: system_server, surfaceflinger, media
/// services, IME, launcher... `scale` stretches footprints for larger-RAM
/// devices (vendors ship heavier system images on bigger devices).
struct SystemProcessSpec {
  std::string name;
  mem::Pages heap_pages = 0;
  mem::Pages code_pages = 0;
  int oom_adj = 0;
  bool killable = false;
};
std::vector<SystemProcessSpec> system_processes(double scale);

/// Baseline cached/empty processes Android keeps around after boot (the
/// LRU the trim thresholds count). More RAM retains more of them.
std::vector<AppSpec> baseline_cached_apps(int count);

}  // namespace mvqoe::proc
