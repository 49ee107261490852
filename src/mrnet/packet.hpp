// Wire packets for the tree network.
//
// Everything that travels the tree (cell histograms, partition boundaries,
// cluster summaries, global-id maps) is serialised into Packets, so message
// sizes — which drive the network cost model — are the real encoded sizes,
// not estimates. Fields go through util/bytes.hpp, the one byte codec
// the file formats share.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"
#include "util/bytes.hpp"

namespace mrscan::mrnet {

class Packet {
 public:
  Packet() = default;
  explicit Packet(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  std::size_t size_bytes() const { return bytes_.size(); }
  std::span<const std::uint8_t> bytes() const { return bytes_; }

  /// FNV-1a hash of the payload. The network records it at first send and
  /// verifies it at delivery when fault handling is armed, so a bug in the
  /// retransmission path (delivering a moved-from or truncated copy) is
  /// caught at the wire rather than as a wrong clustering.
  std::uint64_t checksum() const { return util::fnv1a(bytes_); }

  // -- Writing (appends) --
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u64(std::uint64_t v) { util::append(bytes_, v); }
  void put_f64(double v) { util::append(bytes_, v); }

  template <typename T>
  void put_pod_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_u64(v.size());
    util::append_raw(bytes_, v.data(), v.size() * sizeof(T));
  }

  // -- Reading (cursor-based); an underrun throws --
  class Reader {
   public:
    explicit Reader(const Packet& packet) : in_(packet.bytes_) {}

    std::uint8_t get_u8() { return get<std::uint8_t>(); }
    std::uint64_t get_u64() { return get<std::uint64_t>(); }
    double get_f64() { return get<double>(); }

    template <typename T>
    std::vector<T> get_pod_vector() {
      static_assert(std::is_trivially_copyable_v<T>);
      const std::uint64_t n = get_u64();
      // Checked before allocating, so a corrupt count cannot ask for
      // more elements than the packet holds; the read then cannot fail.
      MRSCAN_REQUIRE_MSG(n <= in_.remaining() / sizeof(T), "packet underrun");
      std::vector<T> v(n);
      (void)in_.read_raw(v.data(), n * sizeof(T));
      return v;
    }

    bool at_end() const { return in_.at_end(); }

   private:
    template <typename T>
    T get() {
      T v{};
      MRSCAN_REQUIRE_MSG(in_.read(v), "packet underrun");
      return v;
    }

    util::ByteReader in_;
  };

  Reader reader() const { return Reader(*this); }

 private:
  std::vector<std::uint8_t> bytes_;
};

}  // namespace mrscan::mrnet
