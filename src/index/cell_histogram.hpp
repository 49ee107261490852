// Per-cell point counts — the only information the partitioner's root
// needs (§3.1.3): "the partitioner ... only send[s] a point count of each
// non-empty Eps x Eps cell to the root."
//
// The histogram is what flows up the partitioner's MRNet tree; merge() is
// the upstream reduction filter.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/cell.hpp"
#include "geometry/point.hpp"

namespace mrscan::index {

class CellHistogram {
 public:
  struct Entry {
    std::uint64_t code = 0;  // packed CellKey
    std::uint64_t count = 0;
  };

  CellHistogram() = default;

  /// Count `points` into cells of `geometry`, through index::Grid's sort.
  CellHistogram(const geom::GridGeometry& geometry,
                std::span<const geom::Point> points);

  /// Construct directly from (code, count) entries; sorted + coalesced.
  explicit CellHistogram(std::vector<Entry> entries);

  /// Add another histogram's counts into this one (tree reduction step).
  void merge(const CellHistogram& other);

  std::span<const Entry> entries() const { return entries_; }
  std::size_t cell_count() const { return entries_.size(); }

  std::uint64_t total_points() const;
  std::uint64_t count_of(geom::CellKey key) const;

 private:
  void normalize();  // sort by code and coalesce duplicates

  std::vector<Entry> entries_;  // sorted by code, unique
};

}  // namespace mrscan::index
