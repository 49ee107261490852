#include "index/bvh.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"

namespace mrscan::index {

namespace {

/// Spread the low 16 bits of `v` so one zero bit separates each pair.
std::uint32_t spread_bits16(std::uint32_t v) {
  v &= 0x0000ffffu;
  v = (v | (v << 8)) & 0x00ff00ffu;
  v = (v | (v << 4)) & 0x0f0f0f0fu;
  v = (v | (v << 2)) & 0x33333333u;
  v = (v | (v << 1)) & 0x55555555u;
  return v;
}

/// 32-bit Morton code from 16-bit quantized coordinates.
std::uint32_t morton2(std::uint32_t qx, std::uint32_t qy) {
  return spread_bits16(qx) | (spread_bits16(qy) << 1);
}

}  // namespace

BVH::BVH(std::span<const geom::Point> points, BVHConfig config)
    : points_(points), config_(config) {
  MRSCAN_REQUIRE(config.max_leaf_points >= 1);
  order_.resize(points.size());
  std::iota(order_.begin(), order_.end(), std::uint32_t{0});
  if (!points.empty()) {
    // Quantize onto a 2^16 grid over the global box and sort by Morton
    // code; the original index is the tiebreaker so duplicate (and
    // co-quantized) points keep a deterministic order.
    const geom::BBox world = geom::bbox_of(points);
    const double sx =
        world.width() > 0.0 ? 65535.0 / world.width() : 0.0;
    const double sy =
        world.height() > 0.0 ? 65535.0 / world.height() : 0.0;
    std::vector<std::uint32_t> code(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto qx =
          static_cast<std::uint32_t>((points[i].x - world.min_x) * sx);
      const auto qy =
          static_cast<std::uint32_t>((points[i].y - world.min_y) * sy);
      code[i] = morton2(qx, qy);
    }
    std::sort(order_.begin(), order_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (code[a] != code[b]) return code[a] < code[b];
                return a < b;
              });
    nodes_.reserve(points.size() / config.max_leaf_points * 2 + 2);
    build(0, static_cast<std::uint32_t>(points.size()), 0);
  }
  // SoA mirror in leaf (Morton) order, the same streaming layout as the
  // KD-tree's.
  leaf_x_.resize(points.size());
  leaf_y_.resize(points.size());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    leaf_x_[i] = points_[order_[i]].x;
    leaf_y_[i] = points_[order_[i]].y;
  }
}

std::uint32_t BVH::build(std::uint32_t begin, std::uint32_t end, int depth) {
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
    node.leaf_id = static_cast<std::uint32_t>(leaves_.size());
    leaves_.push_back(Leaf{box, begin, end});
    return node_id;
  }

  // Median split of the Morton-ordered range: the LBVH analogue of the
  // KD-tree's median split, with no re-partitioning (the sort already
  // settled the order).
  const std::uint32_t mid = begin + static_cast<std::uint32_t>(n / 2);
  const std::uint32_t left = build(begin, mid, depth + 1);
  const std::uint32_t right = build(mid, end, depth + 1);
  Node& node = nodes_[node_id];
  node.box = box;
  node.left = left;
  node.right = right;
  node.leaf_id = kNoLeaf;
  return node_id;
}

std::size_t BVH::count_in_radius(const geom::Point& p, double radius,
                                 QueryScratch& scratch, std::size_t at_least,
                                 std::uint64_t* ops,
                                 std::uint64_t* steps) const {
  std::size_t count = 0;
  if (nodes_.empty()) return 0;
  const double r2 = radius * radius;
  std::uint64_t work = 0;
  std::uint64_t visited = 0;
  const double* xs = leaf_x_.data();
  const double* ys = leaf_y_.data();

  auto& stack = scratch.stack;
  stack.clear();
  stack.push_back(0);
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    ++visited;
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
            if (steps) *steps += visited;
            return count;
          }
        }
      }
    } else {
      stack.push_back(node.right);
      stack.push_back(node.left);
    }
  }
  if (ops) *ops += work;
  if (steps) *steps += visited;
  return count;
}

std::span<const std::uint32_t> BVH::radius_query(
    const geom::Point& p, double radius, QueryScratch& scratch,
    std::uint64_t* ops, std::uint64_t* steps) const {
  auto& out = scratch.results;
  out.clear();
  TraversalCost cost = for_each_in_radius(
      p, radius, scratch, [&](std::uint32_t idx) { out.push_back(idx); });
  if (ops) *ops += cost.dist_ops;
  if (steps) *steps += cost.node_steps;
  return out;
}

std::size_t BVH::count_in_radius(const geom::Point& p, double radius,
                                 std::size_t at_least,
                                 std::uint64_t* ops) const {
  QueryScratch scratch;
  return count_in_radius(p, radius, scratch, at_least, ops);
}

void BVH::radius_query(const geom::Point& p, double radius,
                       std::vector<std::uint32_t>& out,
                       std::uint64_t* ops) const {
  QueryScratch scratch;
  scratch.results.swap(out);  // reuse the caller's capacity
  radius_query(p, radius, scratch, ops);
  scratch.results.swap(out);
}

}  // namespace mrscan::index
