#include "gpu/dense_box.hpp"

#include "gpu/audit.hpp"
#include "util/assert.hpp"
#include "util/audit.hpp"

namespace mrscan::gpu {

template <typename Tree>
DenseBoxes detect_dense_boxes(const Tree& tree, double eps,
                              std::size_t min_pts) {
  MRSCAN_REQUIRE(eps > 0.0);
  MRSCAN_REQUIRE(min_pts >= 1);

  DenseBoxes result;
  result.box_of_point.assign(tree.point_count(), DenseBoxes::kNone);

  const double side = dense_box_side(eps);
  const auto leaves = tree.leaves();
  for (std::uint32_t leaf_id = 0; leaf_id < leaves.size(); ++leaf_id) {
    const auto& leaf = leaves[leaf_id];
    if (leaf.size() < min_pts) continue;
    const double w = leaf.box.width();
    const double h = leaf.box.height();
    if (w > side || h > side) continue;
    // `side` rounds above Eps/sqrt(2) for most Eps, so a box at the side
    // bound can hold two corners that fail the kernels' distance test.
    // Rounding is monotone: a box whose diagonal passes that test,
    // computed the same way, holds no pair that fails it.
    if (w * w + h * h > eps * eps) continue;
    const auto box_ordinal = static_cast<std::uint32_t>(result.leaf_ids.size());
    result.leaf_ids.push_back(leaf_id);
    for (std::uint32_t i = leaf.begin; i < leaf.end; ++i) {
      result.box_of_point[tree.order()[i]] = box_ordinal;
    }
    result.covered_points += leaf.size();
  }

  if constexpr (util::kAuditEnabled) {
    audit_dense_boxes(result, tree, eps, min_pts);
  }
  return result;
}

template DenseBoxes detect_dense_boxes<index::KDTree>(const index::KDTree&,
                                                      double, std::size_t);
template DenseBoxes detect_dense_boxes<index::BVH>(const index::BVH&, double,
                                                   std::size_t);

}  // namespace mrscan::gpu
