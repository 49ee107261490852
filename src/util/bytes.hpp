// The byte codec every wire packet and binary file format goes through.
//
// mrnet::Packet, the io file formats (MRSC points, MRSG segments, MRLB
// labeled output) and the fault checkpoint manifest (MRCK) all append the
// bytes of fixed-width fields to a byte vector and read them back through
// a bounded cursor. This header is that one core; each format keeps only
// its own field order and its own error policy (Packet throws on
// underrun, the io readers fail naming the path, the checkpoint loader
// stops at a torn tail). Fields are written in native byte order, which
// the static_assert below pins to little-endian, so every format is
// little-endian by construction.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

namespace mrscan::util {

static_assert(std::endian::native == std::endian::little,
              "the byte formats are little-endian and written in native "
              "byte order");

/// Append `n` bytes from `src` to `out`. Grows the vector and copies
/// into the new tail instead of a range insert, which GCC 12 at -O3
/// flags with false -Wstringop-overflow warnings once inlined.
inline void append_raw(std::vector<std::uint8_t>& out, const void* src,
                       std::size_t n) {
  if (n == 0) return;
  const std::size_t at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, src, n);
}

/// Append the bytes of a trivially copyable value.
template <typename T>
void append(std::vector<std::uint8_t>& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  append_raw(out, &value, sizeof(T));
}

/// The value whose bytes start at `src`. Unchecked: for fixed-size
/// records inside a range a ByteReader has already bounds-checked.
template <typename T>
T load(const std::uint8_t* src) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  std::memcpy(&value, src, sizeof(T));
  return value;
}

/// A bounded cursor over bytes. A read that would run past the end
/// returns false (or nullopt) and leaves the cursor where it was; the
/// caller applies its format's error policy.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t offset() const { return cursor_; }
  std::size_t remaining() const { return bytes_.size() - cursor_; }
  bool at_end() const { return cursor_ == bytes_.size(); }

  /// The next `n` bytes, consumed.
  std::optional<std::span<const std::uint8_t>> take(std::size_t n) {
    if (n > remaining()) return std::nullopt;
    const auto span = bytes_.subspan(cursor_, n);
    cursor_ += n;
    return span;
  }

  /// Copy the next `n` bytes to `dst`.
  [[nodiscard]] bool read_raw(void* dst, std::size_t n) {
    if (n > remaining()) return false;
    if (n != 0) std::memcpy(dst, bytes_.data() + cursor_, n);
    cursor_ += n;
    return true;
  }

  template <typename T>
  [[nodiscard]] bool read(T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return read_raw(&value, sizeof(T));
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

/// Byte-wise 64-bit FNV-1a with the standard offset basis.
inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace mrscan::util
