// Bounding volume hierarchy over Morton-ordered points (LBVH-style).
//
// The build follows the GPU-friendly recipe of Karras-style LBVHs as used
// by ArborX's FDBSCAN: quantize each point onto a 2^16 grid over the
// global bounding box, sort point indices by interleaved Morton code
// (original index as the tiebreaker, so duplicates stay deterministic),
// then carve the Morton-ordered array into region leaves by recursive
// median split. A range that is contiguous in Morton order is spatially
// coherent, so — exactly like the KD-tree (§3.2.1) — splitting stops when
// a range is small enough (<= max_leaf_points) or its tight box is
// already below min_leaf_extent, which makes the leaves double as the
// dense-box detector's partition in dense areas. Internal nodes store the
// tight AABB of their range (built bottom-up over leaf AABBs).
//
// Query engine: the same allocation-free contract as the KD-tree
// (DESIGN §10) — callers thread a QueryScratch, leaf scans stream an SoA
// coordinate mirror in leaf order. On top of the materializing
// radius_query / batched *_many APIs, the BVH adds *fused* traversal
// (`for_each_in_radius`): the per-neighbor callback fires inside the tree
// walk, no neighbor list is ever built, and the traversal reports both
// distance tests and visited-node steps so the virtual GPU's cost model
// can charge per traversal step (DESIGN §13).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/bbox.hpp"
#include "geometry/point.hpp"
#include "index/query_scratch.hpp"

namespace mrscan::index {

struct BVHConfig {
  /// Leaves stop splitting at this population...
  std::size_t max_leaf_points = 64;
  /// ...or when both box extents are <= this (0 disables the extent stop).
  /// Mr. Scan sets it to (sqrt(2)/2) * Eps so leaves align with dense boxes.
  double min_leaf_extent = 0.0;
};

/// Work a single traversal performed, in the two units the K20 cost model
/// charges for: point distance tests and BVH nodes popped from the stack
/// (each pop is one box test — the per-step cost of a fused walk).
struct TraversalCost {
  std::uint64_t dist_ops = 0;
  std::uint64_t node_steps = 0;
  std::uint64_t total() const { return dist_ops + node_steps; }
};

class BVH {
 public:
  struct Leaf {
    geom::BBox box;          // tight bounding box of the leaf's points
    std::uint32_t begin = 0; // range into order()
    std::uint32_t end = 0;
    std::uint32_t size() const { return end - begin; }
  };

  struct Node {
    geom::BBox box;
    // Internal node: left/right are child node ids. Leaf: leaf_id indexes
    // leaves_ (kNoLeaf marks an internal node).
    std::uint32_t left = 0;
    std::uint32_t right = 0;
    std::uint32_t leaf_id = kNoLeaf;
    bool is_leaf() const { return leaf_id != kNoLeaf; }
  };

  static constexpr std::uint32_t kNoLeaf = 0xffffffffu;

  BVH() = default;

  /// Build over `points`; the span must outlive the tree. Queries return
  /// indices into this span.
  BVH(std::span<const geom::Point> points, BVHConfig config);

  std::size_t point_count() const { return points_.size(); }
  std::span<const Leaf> leaves() const { return leaves_; }

  /// The indexed point at original index `idx`.
  const geom::Point& point_at(std::uint32_t idx) const {
    return points_[idx];
  }

  /// Point indices grouped by leaf (Morton order): order()[leaf.begin,
  /// leaf.end) are the members of that leaf.
  std::span<const std::uint32_t> order() const { return order_; }

  /// Count the Eps-neighbourhood of p, stopping once `at_least` neighbours
  /// have been found (0 = exact count). `ops` accumulates point distance
  /// tests (the KD-tree-parity work unit); `steps` accumulates visited
  /// nodes. Allocation-free once `scratch` is warm.
  std::size_t count_in_radius(const geom::Point& p, double radius,
                              QueryScratch& scratch, std::size_t at_least = 0,
                              std::uint64_t* ops = nullptr,
                              std::uint64_t* steps = nullptr) const;

  /// Collect neighbour indices into `scratch.results` (cleared first) and
  /// return them as a span, valid until the next query through `scratch`.
  /// Neighbor order is the BVH's preorder walk (left child first) and is
  /// identical to the fused for_each_in_radius visit order — part of the
  /// determinism contract.
  std::span<const std::uint32_t> radius_query(
      const geom::Point& p, double radius, QueryScratch& scratch,
      std::uint64_t* ops = nullptr, std::uint64_t* steps = nullptr) const;

  /// Fused traversal: invoke fn(idx) for every point within `radius` of
  /// `p` (inclusive) *during* the walk — no neighbor list is materialized.
  /// Returns the traversal's cost so callers can charge per step.
  template <typename Fn>
  TraversalCost for_each_in_radius(const geom::Point& p, double radius,
                                   QueryScratch& scratch, Fn&& fn) const {
    TraversalCost cost;
    if (nodes_.empty()) return cost;
    const double r2 = radius * radius;
    const double* xs = leaf_x_.data();
    const double* ys = leaf_y_.data();

    auto& stack = scratch.stack;
    stack.clear();
    stack.push_back(0);
    while (!stack.empty()) {
      const Node& node = nodes_[stack.back()];
      stack.pop_back();
      ++cost.node_steps;
      if (node.box.dist2_to(p) > r2) continue;
      if (node.is_leaf()) {
        const Leaf& leaf = leaves_[node.leaf_id];
        for (std::uint32_t i = leaf.begin; i < leaf.end; ++i) {
          ++cost.dist_ops;
          const double dx = p.x - xs[i];
          const double dy = p.y - ys[i];
          if (dx * dx + dy * dy <= r2) fn(order_[i]);
        }
      } else {
        stack.push_back(node.right);
        stack.push_back(node.left);
      }
    }
    return cost;
  }

  /// Batched fused traversal over point indices into the indexed span:
  /// for each q in [0, queries.size()), walk the neighbourhood of the
  /// point at original index queries[q], invoking visit(q, idx) inside
  /// the traversal and done(q, cost) after it. Queries run in order.
  template <typename Visit, typename Done>
  void for_each_in_radius_many(std::span<const std::uint32_t> queries,
                               double radius, QueryScratch& scratch,
                               Visit&& visit, Done&& done) const {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const TraversalCost cost = for_each_in_radius(
          points_[queries[q]], radius, scratch,
          [&](std::uint32_t idx) { visit(q, idx); });
      done(q, cost);
    }
  }

  /// Batched neighbourhood collection, KD-tree-parity shape:
  /// fn(q, neighbors, ops) per query, in order; neighbors borrows
  /// scratch.results. `ops` is distance tests only (the cross-backend
  /// work unit); fused callers use for_each_in_radius_many instead.
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
  std::uint32_t build(std::uint32_t begin, std::uint32_t end, int depth);

  std::span<const geom::Point> points_;
  BVHConfig config_;
  std::vector<Node> nodes_;
  std::vector<Leaf> leaves_;
  std::vector<std::uint32_t> order_;
  // SoA coordinate mirror in leaf (Morton) order: leaf_x_[i] / leaf_y_[i]
  // are the coordinates of points_[order_[i]].
  std::vector<double> leaf_x_;
  std::vector<double> leaf_y_;
};

}  // namespace mrscan::index
