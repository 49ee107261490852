// The dense box optimisation (§3.2.3).
//
// "All points in a sub-division with dimension size less than or equal to
// (sqrt(2)/2) * Eps and point count >= MinPts will be marked as members of
// a cluster" without per-point expansion. A sub-division that small has a
// diagonal of at most Eps, so every pair of its points is mutually within
// Eps; with at least MinPts points, every one of them is a core point —
// membership is inferred, not computed. The detector also checks that
// diagonal in floating point, as the kernels test a distance, because the
// side bound can round above (sqrt(2)/2) * Eps. The sub-divisions come
// for free from the region-leaf KD-tree (§3.2.1) — or from the BVH's
// Morton-run leaves, which stop splitting under the same extent rule — so
// detection is O(l) in the number of leaves for either backend.
#pragma once

#include <cstdint>
#include <vector>

#include "index/bvh.hpp"
#include "index/kdtree.hpp"

namespace mrscan::gpu {

/// The leaf-extent bound under which a KD-tree region qualifies.
inline double dense_box_side(double eps) { return eps * 0.7071067811865476; }

struct DenseBoxes {
  /// Leaf ids (into the tree's leaves()) that qualified as dense boxes.
  std::vector<std::uint32_t> leaf_ids;
  /// Per original point index: the dense-box ordinal that owns the point
  /// (index into leaf_ids), or kNone.
  std::vector<std::uint32_t> box_of_point;
  /// Points covered by dense boxes (the p in O((n - p)^2), §3.2.3).
  std::size_t covered_points = 0;

  static constexpr std::uint32_t kNone = 0xffffffffu;

  std::size_t count() const { return leaf_ids.size(); }
  bool is_dense(std::uint32_t point_idx) const {
    return box_of_point[point_idx] != kNone;
  }
};

/// Scan the tree's leaves and mark dense boxes. Worst case O(l) plus O(p)
/// to flag covered points. Instantiated for index::KDTree and index::BVH
/// (both expose the region-leaf interface the scan reads).
template <typename Tree>
DenseBoxes detect_dense_boxes(const Tree& tree, double eps,
                              std::size_t min_pts);

}  // namespace mrscan::gpu
