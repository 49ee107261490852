// mrscan-lint: allow-file(require-validation) Audit functions check
// internal invariants of already-validated pipeline output; a violation
// is a programming error, so MRSCAN_AUDIT_ASSERT (abort) is the right
// failure mode, not MRSCAN_REQUIRE (throw).
#include "gpu/audit.hpp"

#include <cstdint>

#include "util/audit.hpp"

namespace mrscan::gpu {

template <typename Tree>
void audit_dense_boxes(const DenseBoxes& boxes, const Tree& tree, double eps,
                       std::size_t min_pts) {
  MRSCAN_AUDIT_ASSERT_MSG(boxes.box_of_point.size() == tree.point_count(),
                          "box map does not cover the point set");

  const double side = dense_box_side(eps);
  const auto leaves = tree.leaves();

  std::size_t covered = 0;
  for (std::uint32_t ordinal = 0; ordinal < boxes.leaf_ids.size();
       ++ordinal) {
    const std::uint32_t leaf_id = boxes.leaf_ids[ordinal];
    MRSCAN_AUDIT_ASSERT_MSG(leaf_id < leaves.size(),
                            "dense box refers to a nonexistent leaf");
    const auto& leaf = leaves[leaf_id];
    MRSCAN_AUDIT_ASSERT_MSG(leaf.size() >= min_pts,
                            "dense box below MinPts");
    MRSCAN_AUDIT_ASSERT_MSG(
        leaf.box.width() <= side && leaf.box.height() <= side,
        "dense box wider than (sqrt(2)/2) * Eps");
    const double w = leaf.box.width();
    const double h = leaf.box.height();
    MRSCAN_AUDIT_ASSERT_MSG(w * w + h * h <= eps * eps,
                            "dense box diagonal exceeds Eps");
    for (std::uint32_t i = leaf.begin; i < leaf.end; ++i) {
      const std::uint32_t idx = tree.order()[i];
      MRSCAN_AUDIT_ASSERT_MSG(boxes.box_of_point[idx] == ordinal,
                              "leaf member not mapped to its dense box");
      MRSCAN_AUDIT_ASSERT_MSG(leaf.box.contains(tree.point_at(idx)),
                              "dense-box member outside the leaf box");
    }
    covered += leaf.size();
  }
  MRSCAN_AUDIT_ASSERT_MSG(covered == boxes.covered_points,
                          "covered point total inconsistent");

  std::size_t mapped = 0;
  for (const std::uint32_t box : boxes.box_of_point) {
    if (box == DenseBoxes::kNone) continue;
    MRSCAN_AUDIT_ASSERT_MSG(box < boxes.leaf_ids.size(),
                            "point mapped to a nonexistent dense box");
    ++mapped;
  }
  MRSCAN_AUDIT_ASSERT_MSG(mapped == covered,
                          "points mapped to boxes outside marked leaves");
}

template void audit_dense_boxes<index::KDTree>(const DenseBoxes&,
                                               const index::KDTree&, double,
                                               std::size_t);
template void audit_dense_boxes<index::BVH>(const DenseBoxes&,
                                            const index::BVH&, double,
                                            std::size_t);

}  // namespace mrscan::gpu
