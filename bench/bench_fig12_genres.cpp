// Figure 12: rendering performance across the five genre videos (travel,
// sports, gaming, news, nature) on the Nexus 5, across resolutions,
// frame rates and pressure states. Paper: the trend holds for every
// genre — 30 FPS drops low/negligible, 60 FPS drops significant and
// growing with pressure and resolution.
//
// The 90 (genre, state, fps, height) cells are independent, so they fan
// out across the batch runner; --jobs 1 reproduces the identical numbers
// serially.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mvqoe;
  bench::header("Figure 12 - frame drops across video genres (Nexus 5)",
                "Waheed et al., CoNEXT'22, Fig. 12");
  const int runs = bench::runs_per_cell(3);
  const int duration = bench::video_duration_s(40);
  const int jobs = runner::jobs_from_args(argc, argv);

  const auto suite = video::genre_suite(duration);
  const int heights[] = {480, 720, 1080};
  const int frame_rates[] = {30, 60};
  const mem::PressureLevel states[] = {mem::PressureLevel::Normal, mem::PressureLevel::Moderate,
                                       mem::PressureLevel::Critical};

  // Every (genre, state, fps, height) cell in print order, each one
  // serial run_video_batch.
  struct Cell {
    const video::VideoAsset* asset;
    mem::PressureLevel state;
    int fps;
    int height;
  };
  std::vector<Cell> cells;
  for (const auto& asset : suite) {
    for (const auto state : states) {
      for (const int fps : frame_rates) {
        for (const int height : heights) cells.push_back({&asset, state, fps, height});
      }
    }
  }
  const auto drops = runner::run_batch(cells.size(), jobs, [&](std::size_t i) {
    const Cell& cell = cells[i];
    const int seed = 77 + cell.height + cell.fps + static_cast<int>(cell.state) * 3;
    auto spec = scenario::single_video("fig11", cell.height, cell.fps, cell.asset->duration_s,
                                       cell.state, seed);
    scenario::video_spec(spec).asset_override = *cell.asset;
    return runner::run_video_batch(spec, runs, 1).aggregate.drop_rate().mean;
  });

  std::size_t next = 0;
  for (const auto& asset : suite) {
    bench::section(std::string(video::to_string(asset.genre)) + " — \"" + asset.title + "\"");
    std::printf("  %-9s", "state");
    for (const int fps : frame_rates) {
      for (const int height : heights) std::printf("  %4dp@%-2d", height, fps);
    }
    std::printf("\n");
    for (const auto state : states) {
      std::printf("  %-9s", bench::state_name(state));
      for (std::size_t c = 0; c < std::size(frame_rates) * std::size(heights); ++c) {
        std::printf("  %7.1f%%", 100.0 * drops.runs[next++].value);
      }
      std::printf("\n");
    }
  }

  std::printf("\nShape check (paper): for every genre, 30 FPS drops are low and 60 FPS drops\n"
              "grow with pressure and resolution.\n");
  return 0;
}
