#include "runner/batch.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <type_traits>

namespace mvqoe::runner {

template <typename T>
T parse_positive(std::string_view text, std::string_view name) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = !text.empty() && ec == std::errc{} && ptr == end && value > 0;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    throw std::invalid_argument(std::string(name) + " must be a positive " +
                                (std::is_integral_v<T> ? "integer" : "number") + ", got '" +
                                std::string(text) + "'");
  }
  return value;
}

template int parse_positive<int>(std::string_view, std::string_view);
template double parse_positive<double>(std::string_view, std::string_view);

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("MVQOE_JOBS")) return parse_positive<int>(env, "MVQOE_JOBS");
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int jobs_from_args(int argc, char** argv, int requested) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--jobs") return parse_positive<int>(i + 1 < argc ? argv[i + 1] : "", "--jobs");
    if (arg.starts_with("--jobs=")) return parse_positive<int>(arg.substr(7), "--jobs");
  }
  return resolve_jobs(requested);
}

}  // namespace mvqoe::runner
