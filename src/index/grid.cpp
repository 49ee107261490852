#include "index/grid.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "util/assert.hpp"

namespace mrscan::index {

namespace {

/// Radix digit of the cell-key sort: 2,048 buckets.
constexpr int kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr std::uint64_t kDigitMask = kBuckets - 1;

}  // namespace

Grid::Grid(geom::GridGeometry geometry, std::span<const geom::Point> points)
    : geometry_(geometry) {
  MRSCAN_REQUIRE(geometry.cell_size > 0.0);
  MRSCAN_REQUIRE(points.size() <= std::numeric_limits<std::uint32_t>::max());
  const auto n = static_cast<std::uint32_t>(points.size());
  if (n == 0) {
    offsets_.push_back(0);
    return;
  }

  // Each point's code, computed once, and the bounding box of the codes'
  // two uint32 halves.
  std::vector<std::uint64_t> keys(n);
  std::uint32_t min_ux = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t min_uy = min_ux, max_ux = 0, max_uy = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t code = geom::cell_code(geometry_.cell_of(points[i]));
    const auto ux = static_cast<std::uint32_t>(code >> 32);
    const auto uy = static_cast<std::uint32_t>(code);
    min_ux = std::min(min_ux, ux);
    max_ux = std::max(max_ux, ux);
    min_uy = std::min(min_uy, uy);
    max_uy = std::max(max_uy, uy);
    keys[i] = code;
  }

  // The sort key is the code's rank in that box,
  // (ux - min_ux) * span_y + (uy - min_uy): it orders as the code does
  // and fits in 64 bits. Only the digits of the largest key are sorted.
  const std::uint64_t span_y = std::uint64_t{max_uy} - min_uy + 1;
  const int key_bits = std::bit_width(
      (std::uint64_t{max_ux} - min_ux) * span_y + (max_uy - min_uy));
  const int passes = (key_bits + kDigitBits - 1) / kDigitBits;

  // One sweep turns codes into keys and counts every pass's digits.
  std::vector<std::uint32_t> counts(passes * kBuckets);
  for (std::uint64_t& key : keys) {
    key = ((key >> 32) - min_ux) * span_y +
          (static_cast<std::uint32_t>(key) - min_uy);
    for (int p = 0; p < passes; ++p) {
      ++counts[p * kBuckets + ((key >> (p * kDigitBits)) & kDigitMask)];
    }
  }

  // Stable LSD passes over point indices. The indices enter in ascending
  // order, so each cell's members leave in ascending order. `next` lives
  // only through the passes: with `keys` and `order_`, the build holds
  // 16 bytes per point.
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), std::uint32_t{0});
  {
    std::vector<std::uint32_t> next(n);
    for (int p = 0; p < passes; ++p) {
      std::uint32_t* const start = counts.data() + p * kBuckets;
      std::exclusive_scan(start, start + kBuckets, start, std::uint32_t{0});
      const int shift = p * kDigitBits;
      for (const std::uint32_t i : order_) {
        next[start[(keys[i] >> shift) & kDigitMask]++] = i;
      }
      order_.swap(next);
    }
  }

  // Cells are the runs of equal keys; a cell's code comes back from its
  // key.
  std::uint64_t previous = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t key = keys[order_[i]];
    if (i == 0 || key != previous) {
      codes_.push_back(((min_ux + key / span_y) << 32) |
                       (min_uy + key % span_y));
      offsets_.push_back(i);
      previous = key;
    }
  }
  offsets_.push_back(n);
}

std::size_t Grid::find(std::uint64_t code) const {
  const auto it = std::lower_bound(codes_.begin(), codes_.end(), code);
  if (it == codes_.end() || *it != code) return npos;
  return static_cast<std::size_t>(it - codes_.begin());
}

std::span<const std::uint32_t> Grid::points_in(geom::CellKey key) const {
  const std::size_t ordinal = find(geom::cell_code(key));
  if (ordinal == npos) return {};
  return members(ordinal);
}

}  // namespace mrscan::index
