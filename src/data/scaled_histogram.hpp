// The sample-and-scale step behind twitter_histogram and sdss_histogram:
// model-mode benches plan partitions for billions of points from the cell
// histogram of a small generated sample, its counts scaled up to the
// virtual dataset size (the paper generated its large datasets from a
// sampled distribution the same way, §4.1).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/bbox.hpp"
#include "geometry/point.hpp"
#include "index/cell_histogram.hpp"

namespace mrscan::data {

/// Count `sample` on the `eps` grid anchored at `window`'s lower-left
/// corner and scale each count by num_points / sample.size(), rounded but
/// kept at least 1. A sample of the full size is returned unscaled.
inline index::CellHistogram scaled_histogram(const geom::PointSet& sample,
                                             const geom::BBox& window,
                                             double eps,
                                             std::uint64_t num_points) {
  const geom::GridGeometry geometry{window.min_x, window.min_y, eps};
  index::CellHistogram hist(geometry, sample);
  if (sample.size() == num_points) return hist;

  const double scale =
      static_cast<double>(num_points) / static_cast<double>(sample.size());
  std::vector<index::CellHistogram::Entry> scaled;
  scaled.reserve(hist.cell_count());
  for (const auto& e : hist.entries()) {
    const auto count = static_cast<std::uint64_t>(
        std::max(1.0, std::round(static_cast<double>(e.count) * scale)));
    scaled.push_back({e.code, count});
  }
  return index::CellHistogram(std::move(scaled));
}

}  // namespace mrscan::data
