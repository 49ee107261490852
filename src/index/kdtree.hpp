// Region-leaf KD-tree, after CUDA-DClust (Böhm et al., CIKM '09).
//
// Unlike a textbook KD-tree whose leaves are single points, each leaf here
// is a *region* holding a contiguous block of points (§3.2.1). The GPGPU
// DBSCAN uses leaves two ways:
//   * neighbourhood queries visit whole leaf blocks, which maps to coalesced
//     memory access on the device;
//   • the leaf subdivision doubles as the dense-box detector's partition of
//     the point space (§3.2.3): a leaf whose extent is at most
//     (sqrt(2)/2) * Eps on each side and holds >= MinPts points contains
//     only mutually-Eps-reachable points, so all of them are core.
//
// Splitting alternates axes at the median and stops when a node is small
// enough (<= max_leaf_points) or its extent is already below
// min_leaf_extent — in dense areas the tree therefore bottoms out exactly
// at dense-box-sized regions with large point counts.
//
// Query engine: the hot path is allocation-free. Callers thread a
// QueryScratch (traversal stack + result buffer) through every query, and
// leaf scans read an SoA coordinate mirror (separate x/y arrays in leaf
// order) so they stream cache-line-sequential doubles instead of striding
// through geom::Point records via the order_[i] indirection. The scans do
// not branch on the distance test, whose outcome is close to random point
// by point: a count adds each comparison result to its total, and a
// collecting query stores every candidate index and advances its write
// position by the result (DESIGN §10).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/bbox.hpp"
#include "geometry/point.hpp"
#include "index/query_scratch.hpp"

namespace mrscan::index {

struct KDTreeConfig {
  /// Leaves stop splitting at this population...
  std::size_t max_leaf_points = 64;
  /// ...or when both box extents are <= this (0 disables the extent stop).
  /// Mr. Scan sets it to (sqrt(2)/2) * Eps so leaves align with dense boxes.
  double min_leaf_extent = 0.0;
};

class KDTree {
 public:
  struct Leaf {
    geom::BBox box;          // tight bounding box of the leaf's points
    std::uint32_t begin = 0; // range into order()
    std::uint32_t end = 0;
    std::uint32_t size() const { return end - begin; }
  };

  struct Node {
    geom::BBox box;
    // Internal node: left = first child index, right = second. Leaf:
    // leaf_id indexes leaves_. axis < 0 marks a leaf.
    std::int8_t axis = -1;
    std::uint32_t left = 0;
    std::uint32_t right = 0;
    std::uint32_t leaf_id = 0;
    bool is_leaf() const { return axis < 0; }
  };

  KDTree() = default;

  /// Build over `points`; the span must outlive the tree. Queries return
  /// indices into this span.
  KDTree(std::span<const geom::Point> points, KDTreeConfig config);

  std::size_t point_count() const { return points_.size(); }
  std::span<const Leaf> leaves() const { return leaves_; }

  /// The indexed point at original index `idx`.
  const geom::Point& point_at(std::uint32_t idx) const {
    return points_[idx];
  }

  /// Point indices grouped by leaf: order()[leaf.begin, leaf.end) are the
  /// members of that leaf.
  std::span<const std::uint32_t> order() const { return order_; }

  /// Count the Eps-neighbourhood of p, stopping once `at_least` neighbours
  /// have been found (0 = exact count). If `ops` is non-null it is
  /// incremented by the number of point distance computations performed —
  /// the work unit the virtual GPU's cost model charges for. Allocation-free
  /// once `scratch` is warm.
  std::size_t count_in_radius(const geom::Point& p, double radius,
                              QueryScratch& scratch, std::size_t at_least = 0,
                              std::uint64_t* ops = nullptr) const;

  /// Collect neighbour indices into `scratch.results` (cleared first) and
  /// return them as a span, valid until the next query through `scratch`.
  /// Neighbor order is part of the determinism contract and matches the
  /// legacy out-vector overload exactly. `ops` as above.
  std::span<const std::uint32_t> radius_query(
      const geom::Point& p, double radius, QueryScratch& scratch,
      std::uint64_t* ops = nullptr) const;

  /// Batched neighbourhood collection: for each q in [0, queries.size()),
  /// query the point at original index queries[q] and invoke
  /// fn(q, neighbors, ops) with that query's neighbor span (borrowing
  /// scratch.results — consume it before the next query runs) and its
  /// distance-computation count. Queries run in order, so per-query
  /// results and any stateful fn are deterministic.
  template <typename Fn>
  void radius_query_many(std::span<const std::uint32_t> queries,
                         double radius, QueryScratch& scratch,
                         Fn&& fn) const {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      std::uint64_t ops = 0;
      const auto neighbors =
          radius_query(points_[queries[q]], radius, scratch, &ops);
      fn(q, neighbors, ops);
    }
  }

  /// Batched counting with early exit: fn(q, count, ops) per query.
  template <typename Fn>
  void count_in_radius_many(std::span<const std::uint32_t> queries,
                            double radius, std::size_t at_least,
                            QueryScratch& scratch, Fn&& fn) const {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      std::uint64_t ops = 0;
      const std::size_t count = count_in_radius(points_[queries[q]], radius,
                                                scratch, at_least, &ops);
      fn(q, count, ops);
    }
  }

  /// Convenience overloads that allocate a fresh traversal stack per call.
  /// Tests and one-off callers only — hot paths thread a QueryScratch.
  std::size_t count_in_radius(const geom::Point& p, double radius,
                              std::size_t at_least = 0,
                              std::uint64_t* ops = nullptr) const;
  void radius_query(const geom::Point& p, double radius,
                    std::vector<std::uint32_t>& out,
                    std::uint64_t* ops = nullptr) const;

  /// Total nodes (diagnostics / cost accounting).
  std::size_t node_count() const { return nodes_.size(); }

 private:
  // A point as the build moves it: coordinates packed with the original
  // index, so the median splits compare and swap contiguous records
  // instead of gathering points_ through order_.
  struct BuildPoint {
    double x;
    double y;
    std::uint32_t index;
  };

  std::uint32_t build(std::span<BuildPoint> pts, std::uint32_t begin,
                      std::uint32_t end, int depth);

  std::span<const geom::Point> points_;
  KDTreeConfig config_;
  std::vector<Node> nodes_;
  std::vector<Leaf> leaves_;
  std::vector<std::uint32_t> order_;
  // SoA coordinate mirror in leaf order: leaf_x_[i] / leaf_y_[i] are the
  // coordinates of points_[order_[i]], so leaf scans stream sequentially.
  std::vector<double> leaf_x_;
  std::vector<double> leaf_y_;
};

}  // namespace mrscan::index
