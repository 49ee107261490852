#include "index/cell_histogram.hpp"

#include <algorithm>

#include "index/grid.hpp"

namespace mrscan::index {

CellHistogram::CellHistogram(const geom::GridGeometry& geometry,
                             std::span<const geom::Point> points) {
  // The grid's sort groups the points by cell in ascending code order;
  // only each cell's count is kept.
  const Grid grid(geometry, points);
  entries_.reserve(grid.cell_count());
  for (std::size_t c = 0; c < grid.cell_count(); ++c) {
    entries_.push_back(Entry{grid.codes()[c], grid.members(c).size()});
  }
}

CellHistogram::CellHistogram(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  normalize();
}

void CellHistogram::normalize() {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.code < b.code; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (out > 0 && entries_[out - 1].code == entries_[i].code) {
      entries_[out - 1].count += entries_[i].count;
    } else {
      entries_[out++] = entries_[i];
    }
  }
  entries_.resize(out);
}

void CellHistogram::merge(const CellHistogram& other) {
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  std::size_t i = 0, j = 0;
  while (i < entries_.size() && j < other.entries_.size()) {
    if (entries_[i].code < other.entries_[j].code) {
      merged.push_back(entries_[i++]);
    } else if (entries_[i].code > other.entries_[j].code) {
      merged.push_back(other.entries_[j++]);
    } else {
      merged.push_back(
          Entry{entries_[i].code, entries_[i].count + other.entries_[j].count});
      ++i;
      ++j;
    }
  }
  while (i < entries_.size()) merged.push_back(entries_[i++]);
  while (j < other.entries_.size()) merged.push_back(other.entries_[j++]);
  entries_ = std::move(merged);
}

std::uint64_t CellHistogram::total_points() const {
  std::uint64_t total = 0;
  for (const Entry& e : entries_) total += e.count;
  return total;
}

std::uint64_t CellHistogram::count_of(geom::CellKey key) const {
  const std::uint64_t code = geom::cell_code(key);
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), code,
      [](const Entry& e, std::uint64_t c) { return e.code < c; });
  if (it == entries_.end() || it->code != code) return 0;
  return it->count;
}

}  // namespace mrscan::index
