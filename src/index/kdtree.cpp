#include "index/kdtree.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "util/assert.hpp"

namespace mrscan::index {

namespace {

/// Points per block of an early-exiting count: the count is checked
/// against its target once per block, not once per point.
constexpr std::uint32_t kCountBlock = 16;

/// Whether the leaf-order point i is within the squared radius of p.
inline bool within(const double* xs, const double* ys, std::uint32_t i,
                   const geom::Point& p, double r2) {
  const double dx = p.x - xs[i];
  const double dy = p.y - ys[i];
  return dx * dx + dy * dy <= r2;
}

}  // namespace

KDTree::KDTree(std::span<const geom::Point> points, KDTreeConfig config)
    : points_(points), config_(config) {
  MRSCAN_REQUIRE(config.max_leaf_points >= 1);
  const std::size_t n = points.size();
  std::vector<BuildPoint> packed;
  packed.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    packed.push_back({points[i].x, points[i].y, static_cast<std::uint32_t>(i)});
  }
  if (n != 0) {
    nodes_.reserve(n / config.max_leaf_points * 2 + 2);
    build(packed, 0, static_cast<std::uint32_t>(n), 0);
  }
  // The build leaves the records in leaf order: read the permutation off
  // them and release them before the SoA mirror is gathered, so the
  // records never coexist with the mirror. Leaf scans then read
  // consecutive doubles instead of gathering 32-byte Point records
  // through order_[i].
  order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) order_[i] = packed[i].index;
  std::vector<BuildPoint>().swap(packed);
  leaf_x_.resize(n);
  leaf_y_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    leaf_x_[i] = points_[order_[i]].x;
    leaf_y_[i] = points_[order_[i]].y;
  }
}

std::uint32_t KDTree::build(std::span<BuildPoint> pts, std::uint32_t begin,
                            std::uint32_t end, int depth) {
  const std::uint32_t node_id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();

  geom::BBox box;
  for (std::uint32_t i = begin; i < end; ++i) {
    box.expand(geom::Point{0, pts[i].x, pts[i].y});
  }

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
  // more gracefully on elongated regions). The records carry the same
  // keys an index permutation would look up, so nth_element sees the same
  // comparison results and leaves the same order.
  const int axis = box.width() >= box.height() ? 0 : 1;
  const std::uint32_t mid = begin + static_cast<std::uint32_t>(n / 2);
  const auto first = pts.begin() + begin;
  if (axis == 0) {
    std::nth_element(first, pts.begin() + mid, pts.begin() + end,
                     [](const BuildPoint& a, const BuildPoint& b) {
                       return a.x < b.x;
                     });
  } else {
    std::nth_element(first, pts.begin() + mid, pts.begin() + end,
                     [](const BuildPoint& a, const BuildPoint& b) {
                       return a.y < b.y;
                     });
  }

  const std::uint32_t left = build(pts, begin, mid, depth + 1);
  const std::uint32_t right = build(pts, mid, end, depth + 1);
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
  // No count reaches the target of an exact count (at_least == 0).
  const std::size_t target =
      at_least == 0 ? std::numeric_limits<std::size_t>::max() : at_least;
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
    if (!node.is_leaf()) {
      stack.push_back(node.left);
      stack.push_back(node.right);
      continue;
    }
    const Leaf& leaf = leaves_[node.leaf_id];
    for (std::uint32_t b = leaf.begin; b < leaf.end; b += kCountBlock) {
      const std::uint32_t size = std::min(kCountBlock, leaf.end - b);
      std::array<std::uint8_t, kCountBlock> hit{};
      std::size_t hits = 0;
      for (std::uint32_t k = 0; k < size; ++k) {
        hit[k] = within(xs, ys, b + k, p, r2);
        hits += hit[k];
      }
      if (count + hits >= target) {
        // The target-th hit is in this block: charge the points up to and
        // including it, exactly as a point-by-point scan stops.
        for (std::uint32_t k = 0;; ++k) {
          count += hit[k];
          if (count == target) {
            if (ops) *ops += work + k + 1;
            return count;
          }
        }
      }
      count += hits;
      work += size;
    }
  }
  if (ops) *ops += work;
  return count;
}

std::span<const std::uint32_t> KDTree::radius_query(
    const geom::Point& p, double radius, QueryScratch& scratch,
    std::uint64_t* ops) const {
  auto& out = scratch.results;
  std::size_t found = 0;
  if (nodes_.empty()) {
    out.clear();
    return out;
  }
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
    if (!node.is_leaf()) {
      stack.push_back(node.left);
      stack.push_back(node.right);
      continue;
    }
    const Leaf& leaf = leaves_[node.leaf_id];
    // Room for every candidate; the buffer only grows past its last
    // query's size, so a warm scratch does not allocate.
    if (out.size() < found + leaf.size()) out.resize(found + leaf.size());
    std::uint32_t* dst = out.data();
    for (std::uint32_t i = leaf.begin; i < leaf.end; ++i) {
      dst[found] = order_[i];
      found += within(xs, ys, i, p, r2);
    }
    work += leaf.size();
  }
  out.resize(found);
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
