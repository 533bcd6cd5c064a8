#include "runner/batch.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <type_traits>

namespace mvqoe::runner {

namespace {

/// The smallest value parse_positive accepts.
template <typename T>
constexpr T kLeastPositive = std::is_integral_v<T> ? T{1} : std::numeric_limits<T>::denorm_min();

/// The shortest decimal spelling of `value`.
template <typename T>
std::string decimal(T value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, end);
}

/// What a value in [lo, hi] is, in words: "a positive decimal integer",
/// "a decimal integer >= 0", "a decimal integer in [0, 3]".
template <typename T>
std::string wanted(T lo, T hi) {
  const std::string kind = std::is_integral_v<T> ? "integer" : "number";
  if (hi != std::numeric_limits<T>::max()) {
    return "a decimal " + kind + " in [" + decimal(lo) + ", " + decimal(hi) + "]";
  }
  if (lo == kLeastPositive<T>) return "a positive decimal " + kind;
  return "a decimal " + kind + " >= " + decimal(lo);
}

}  // namespace

template <typename T>
T parse_number(std::string_view text, std::string_view name, T lo, T hi) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  // The bounds also reject nan and inf (every comparison with nan is
  // false; inf exceeds any finite hi).
  bool ok = !text.empty() && ec == std::errc{} && ptr == end && lo <= value && value <= hi;
  if constexpr (std::is_integral_v<T>) {
    const std::string_view digits = text.substr(text.starts_with('-') ? 1 : 0);
    ok = ok && (digits.size() == 1 || !digits.starts_with('0'));
  }
  if (!ok) {
    throw std::invalid_argument(std::string(name) + " must be " + wanted(lo, hi) + ", got '" +
                                std::string(text) + "'");
  }
  return value;
}

template int parse_number<int>(std::string_view, std::string_view, int, int);
template std::int64_t parse_number<std::int64_t>(std::string_view, std::string_view,
                                                 std::int64_t, std::int64_t);
template std::uint64_t parse_number<std::uint64_t>(std::string_view, std::string_view,
                                                   std::uint64_t, std::uint64_t);
template double parse_number<double>(std::string_view, std::string_view, double, double);

template <typename T>
T parse_positive(std::string_view text, std::string_view name) {
  return parse_number<T>(text, name, kLeastPositive<T>);
}

template int parse_positive<int>(std::string_view, std::string_view);
template double parse_positive<double>(std::string_view, std::string_view);

template <typename T>
T parse_arg(int argc, char** argv, int index, std::string_view name, T fallback, T lo, T hi) {
  if (argc <= index) return fallback;
  try {
    return parse_number<T>(argv[index], name, lo, hi);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    std::exit(2);
  }
}

template int parse_arg<int>(int, char**, int, std::string_view, int, int, int);
template double parse_arg<double>(int, char**, int, std::string_view, double, double, double);

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
