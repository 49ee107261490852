// The digest the pin tests (PartitionPin.*, LeafPin.*, FormatPin.*)
// compare against recorded values: any change to a digested word changes
// the digest.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

namespace mrscan::test {

/// FNV-1a over the little-endian bytes of 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(std::span<const std::uint64_t> words) {
    add(std::uint64_t{words.size()});
    for (const std::uint64_t w : words) add(w);
  }
  /// The byte count, then each byte as one word.
  void add_bytes(std::span<const std::uint8_t> bytes) {
    add(std::uint64_t{bytes.size()});
    for (const std::uint8_t b : bytes) add(std::uint64_t{b});
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace mrscan::test
