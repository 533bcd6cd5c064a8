#include "proc/app_catalog.hpp"

namespace mvqoe::proc {

using mem::pages_from_mb;

const std::vector<AppSpec>& top_free_apps() {
  static const std::vector<AppSpec> apps = {
      {"com.whatsapp", pages_from_mb(95), pages_from_mb(30), pages_from_mb(1) / 4, false},
      {"com.instagram", pages_from_mb(160), pages_from_mb(45), pages_from_mb(1), false},
      {"com.facebook", pages_from_mb(180), pages_from_mb(55), pages_from_mb(1), false},
      {"com.tiktok", pages_from_mb(190), pages_from_mb(50), pages_from_mb(2), false},
      {"com.snapchat", pages_from_mb(150), pages_from_mb(40), pages_from_mb(1), false},
      {"com.twitter", pages_from_mb(110), pages_from_mb(35), pages_from_mb(1) / 2, false},
      {"com.spotify", pages_from_mb(105), pages_from_mb(35), pages_from_mb(1) / 4, false},
      {"com.amazon.shopping", pages_from_mb(120), pages_from_mb(40), pages_from_mb(1) / 2, false},
      {"com.gmail", pages_from_mb(85), pages_from_mb(28), 0, false},
      {"com.maps", pages_from_mb(140), pages_from_mb(48), pages_from_mb(1), false},
      {"com.telegram", pages_from_mb(90), pages_from_mb(28), pages_from_mb(1) / 4, false},
      {"com.uber", pages_from_mb(100), pages_from_mb(32), pages_from_mb(1) / 2, false},
  };
  return apps;
}

const std::vector<AppSpec>& game_apps() {
  static const std::vector<AppSpec> games = {
      {"com.pubg.mobile", pages_from_mb(420), pages_from_mb(90), pages_from_mb(2), true},
      {"com.supercell.clashofclans", pages_from_mb(260), pages_from_mb(60), pages_from_mb(1), true},
      {"com.candycrush", pages_from_mb(200), pages_from_mb(45), pages_from_mb(1) / 2, true},
      {"com.freefire", pages_from_mb(380), pages_from_mb(85), pages_from_mb(2), true},
  };
  return games;
}

const std::vector<AppSpec>& media_apps() {
  static const std::vector<AppSpec> apps = {
      {"com.youtube", pages_from_mb(185), pages_from_mb(55), pages_from_mb(3), false},
      {"com.netflix", pages_from_mb(170), pages_from_mb(50), pages_from_mb(2), false},
      {"com.spotify.play", pages_from_mb(110), pages_from_mb(35), pages_from_mb(1) / 2, false},
  };
  return apps;
}

std::vector<SystemProcessSpec> system_processes(double scale) {
  auto scaled = [scale](std::int64_t mb) {
    return pages_from_mb(static_cast<std::int64_t>(static_cast<double>(mb) * scale));
  };
  return {
      {"system_server", scaled(110), scaled(40), mem::OomAdj::kForeground, false},
      {"surfaceflinger", scaled(35), scaled(12), mem::OomAdj::kForeground, false},
      {"com.android.systemui", scaled(60), scaled(24), mem::OomAdj::kVisible, false},
      {"media.codec", scaled(20), scaled(10), mem::OomAdj::kVisible, false},
      {"com.android.phone", scaled(28), scaled(12), mem::OomAdj::kPerceptible, false},
      {"com.android.launcher", scaled(55), scaled(20), mem::OomAdj::kVisible, true},
      {"com.android.inputmethod", scaled(30), scaled(12), mem::OomAdj::kPerceptible, true},
      {"com.google.gms", scaled(70), scaled(28), mem::OomAdj::kService, true},
  };
}

std::vector<AppSpec> baseline_cached_apps(int count) {
  std::vector<AppSpec> cached;
  const auto& pool = top_free_apps();
  for (int i = 0; i < count; ++i) {
    AppSpec app = pool[static_cast<std::size_t>(i) % pool.size()];
    app.name += ".cached" + std::to_string(i);
    // Cached processes have been trimmed: they hold roughly a third of
    // their launch heap.
    app.heap_pages /= 3;
    app.code_pages /= 2;
    app.growth_pages_per_sec = 0;
    cached.push_back(std::move(app));
  }
  return cached;
}

}  // namespace mvqoe::proc
