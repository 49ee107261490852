#include "index/kdtree.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"

namespace mrscan::index {

KDTree::KDTree(std::span<const geom::Point> points, KDTreeConfig config)
    : points_(points), config_(config) {
  MRSCAN_REQUIRE(config.max_leaf_points >= 1);
  order_.resize(points.size());
  std::iota(order_.begin(), order_.end(), std::uint32_t{0});
  if (!points.empty()) {
    nodes_.reserve(points.size() / config.max_leaf_points * 2 + 2);
    build(0, static_cast<std::uint32_t>(points.size()), 0);
  }
  // SoA mirror: copy coordinates into leaf order once, after the build has
  // settled order_. Leaf scans then read consecutive doubles instead of
  // gathering 32-byte Point records through order_[i].
  leaf_x_.resize(points.size());
  leaf_y_.resize(points.size());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    leaf_x_[i] = points_[order_[i]].x;
    leaf_y_[i] = points_[order_[i]].y;
  }
}

std::uint32_t KDTree::build(std::uint32_t begin, std::uint32_t end,
                            int depth) {
  const std::uint32_t node_id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();

  geom::BBox box;
  for (std::uint32_t i = begin; i < end; ++i) box.expand(points_[order_[i]]);

  const std::size_t n = end - begin;
  const bool small_enough = n <= config_.max_leaf_points;
  const bool extent_stop =
      config_.min_leaf_extent > 0.0 &&
      box.width() <= config_.min_leaf_extent &&
      box.height() <= config_.min_leaf_extent;

  if (small_enough || extent_stop || depth > 48) {
    Node& node = nodes_[node_id];
    node.box = box;
    node.axis = -1;
    node.leaf_id = static_cast<std::uint32_t>(leaves_.size());
    leaves_.push_back(Leaf{box, begin, end});
    return node_id;
  }

  // Split along the wider axis at the median (CUDA-DClust alternates axes;
  // widest-axis splits behave identically on isotropic data and degrade
  // more gracefully on elongated regions).
  const int axis = box.width() >= box.height() ? 0 : 1;
  const std::uint32_t mid = begin + static_cast<std::uint32_t>(n / 2);
  std::nth_element(order_.begin() + begin, order_.begin() + mid,
                   order_.begin() + end,
                   [&](std::uint32_t a, std::uint32_t b) {
                     return axis == 0 ? points_[a].x < points_[b].x
                                      : points_[a].y < points_[b].y;
                   });

  const std::uint32_t left = build(begin, mid, depth + 1);
  const std::uint32_t right = build(mid, end, depth + 1);
  Node& node = nodes_[node_id];
  node.box = box;
  node.axis = static_cast<std::int8_t>(axis);
  node.left = left;
  node.right = right;
  return node_id;
}

std::size_t KDTree::count_in_radius(const geom::Point& p, double radius,
                                    QueryScratch& scratch,
                                    std::size_t at_least,
                                    std::uint64_t* ops) const {
  std::size_t count = 0;
  if (nodes_.empty()) return 0;
  const double r2 = radius * radius;
  std::uint64_t work = 0;
  const double* xs = leaf_x_.data();
  const double* ys = leaf_y_.data();

  // Iterative traversal with early exit, on the caller-owned stack.
  auto& stack = scratch.stack;
  stack.clear();
  stack.push_back(0);
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    if (node.box.dist2_to(p) > r2) continue;
    if (node.is_leaf()) {
      const Leaf& leaf = leaves_[node.leaf_id];
      for (std::uint32_t i = leaf.begin; i < leaf.end; ++i) {
        ++work;
        const double dx = p.x - xs[i];
        const double dy = p.y - ys[i];
        if (dx * dx + dy * dy <= r2) {
          ++count;
          if (at_least != 0 && count >= at_least) {
            if (ops) *ops += work;
            return count;
          }
        }
      }
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  if (ops) *ops += work;
  return count;
}

std::span<const std::uint32_t> KDTree::radius_query(
    const geom::Point& p, double radius, QueryScratch& scratch,
    std::uint64_t* ops) const {
  auto& out = scratch.results;
  out.clear();
  if (nodes_.empty()) return out;
  const double r2 = radius * radius;
  std::uint64_t work = 0;
  const double* xs = leaf_x_.data();
  const double* ys = leaf_y_.data();

  auto& stack = scratch.stack;
  stack.clear();
  stack.push_back(0);
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    if (node.box.dist2_to(p) > r2) continue;
    if (node.is_leaf()) {
      const Leaf& leaf = leaves_[node.leaf_id];
      for (std::uint32_t i = leaf.begin; i < leaf.end; ++i) {
        ++work;
        const double dx = p.x - xs[i];
        const double dy = p.y - ys[i];
        if (dx * dx + dy * dy <= r2) out.push_back(order_[i]);
      }
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  if (ops) *ops += work;
  return out;
}

std::size_t KDTree::count_in_radius(const geom::Point& p, double radius,
                                    std::size_t at_least,
                                    std::uint64_t* ops) const {
  QueryScratch scratch;
  return count_in_radius(p, radius, scratch, at_least, ops);
}

void KDTree::radius_query(const geom::Point& p, double radius,
                          std::vector<std::uint32_t>& out,
                          std::uint64_t* ops) const {
  QueryScratch scratch;
  scratch.results.swap(out);  // reuse the caller's capacity
  radius_query(p, radius, scratch, ops);
  scratch.results.swap(out);
}

}  // namespace mrscan::index
