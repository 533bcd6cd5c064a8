// Named, parameterised specs: the one wire codec, key lookup and key
// check for every component a world picks by (name, params) — the
// memory policy (mem::MemPolicySpec) and the link's congestion
// controller (net::NetSpec). Specs arrive as bytes from SCEN sections
// and campaign checkpoint configs, so a malformed one must fail by name
// here rather than run as some silently clamped value.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "snapshot/bytes.hpp"

namespace mvqoe::snapshot {

/// (key, value) overrides in the order given.
using Params = std::vector<std::pair<std::string, double>>;

/// str(name), u32(param count), then (str key, f64 value) per param.
inline void save_named_params(ByteWriter& w, std::string_view name, const Params& params) {
  w.str(name);
  w.u32(static_cast<std::uint32_t>(params.size()));
  for (const auto& [key, value] : params) {
    w.str(key);
    w.f64(value);
  }
}

inline void load_named_params(ByteReader& r, std::string& name, Params& params) {
  name = r.str();
  const std::uint32_t count = r.u32();
  params.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string key = r.str();
    params.emplace_back(std::move(key), r.f64());
  }
}

/// The value given for `key`, nullopt when absent.
inline std::optional<double> find_param(const Params& params, std::string_view key) {
  for (const auto& [name, value] : params) {
    if (name == key) return value;
  }
  return std::nullopt;
}

/// Throws std::invalid_argument naming `owner` and the key on a key
/// outside `allowed`, a key given twice, or a value that is not finite.
inline void check_params(std::string_view owner, const Params& params,
                         std::initializer_list<std::string_view> allowed) {
  for (auto it = params.begin(); it != params.end(); ++it) {
    const auto& [key, value] = *it;
    const auto fail = [&](const std::string& why) {
      throw std::invalid_argument(std::string(owner) + ": " + why);
    };
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      fail("unknown parameter '" + key + "'");
    }
    if (std::any_of(params.begin(), it, [&](const auto& earlier) { return earlier.first == key; })) {
      fail("parameter '" + key + "' is given twice");
    }
    if (!std::isfinite(value)) fail("parameter '" + key + "' must be finite");
  }
}

/// Throws std::invalid_argument naming `owner` and `key` unless `scaled`
/// — a parameter as its integer conversion sees it (rounded, times ms to
/// µs, MB to bytes, ...) — is below `limit`, the first value the target
/// integer type cannot hold (2^63 for int64, 2^64 for uint64).
inline void check_fits(std::string_view owner, std::string_view key, double scaled,
                       double limit) {
  if (!(scaled < limit)) {
    throw std::invalid_argument(std::string(owner) + ": parameter '" + std::string(key) +
                                "' is too large for its integer conversion");
  }
}

}  // namespace mvqoe::snapshot
