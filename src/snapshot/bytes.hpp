// Byte-level serialization primitives for simulation snapshots.
//
// Fixed-width little-endian encoding, no varints, no alignment padding:
// the byte stream a subsystem's save() produces must be identical across
// runs and platforms for the same logical state, because the state digest
// is computed over exactly these bytes. Doubles are stored as their IEEE
// bit pattern (bit_cast), never formatted, so round-trips are exact.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mvqoe::snapshot {

/// Append-only byte buffer with typed writers.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { words(v, 4); }
  void u64(std::uint64_t v) { words(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  /// IEEE-754 bit pattern; exact round-trip, hashable.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size()));
    out_.append(v.data(), v.size());
  }
  void raw(std::string_view v) { out_.append(v.data(), v.size()); }

  std::string_view view() const noexcept { return out_; }
  std::size_t size() const noexcept { return out_.size(); }
  std::string take() && { return std::move(out_); }

 private:
  void words(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
  std::string out_;
};

/// Bounds-checked reader over a serialized buffer. Truncated or
/// malformed input throws (snapshots come from files).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) noexcept : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(words(4)); }
  std::uint64_t u64() { return words(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  bool b() { return u8() != 0; }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint32_t n = u32();
    const std::string_view s = take(n);
    return std::string(s);
  }
  /// A one-byte enum whose values run from 0 to `last`; a byte past
  /// `last` throws naming `field` and the byte.
  template <typename Enum>
  Enum enum8(std::string_view field, Enum last) {
    const std::uint8_t byte = u8();
    if (byte > static_cast<std::uint8_t>(last)) {
      throw std::runtime_error(std::string(field) + " byte " + std::to_string(byte) +
                               " is out of range");
    }
    return static_cast<Enum>(byte);
  }
  /// Bounds-checked view of the next n raw bytes.
  std::string_view raw(std::size_t n) { return take(n); }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return remaining() == 0; }

 private:
  std::string_view take(std::size_t n) {
    if (n > remaining()) throw std::runtime_error("snapshot: truncated byte stream");
    const std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  std::uint64_t words(int bytes) {
    const std::string_view s = take(static_cast<std::size_t>(bytes));
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(s[static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace mvqoe::snapshot
