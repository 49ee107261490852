// Deep invariant audit of dense-box detection (phase boundary: cluster).
//
// Checks what detect_dense_boxes promises (§3.2.3):
//   * every marked leaf holds >= MinPts points and fits in a box of side
//     <= (sqrt(2)/2) * Eps whose diagonal, computed as the kernels compute
//     a distance, is <= Eps, so all members are mutually Eps-reachable
//     core points;
//   * the point -> box map agrees exactly with the marked leaves' member
//     ranges, every member lies inside its leaf's bounding box, and the
//     covered-point total is consistent.
//
// Aborts via MRSCAN_AUDIT_ASSERT on any violation. Compiled always,
// called from detect_dense_boxes only when MRSCAN_CHECK_INVARIANTS is ON.
#pragma once

#include <cstddef>

#include "gpu/dense_box.hpp"
#include "index/bvh.hpp"
#include "index/kdtree.hpp"

namespace mrscan::gpu {

/// Instantiated for index::KDTree and index::BVH.
template <typename Tree>
void audit_dense_boxes(const DenseBoxes& boxes, const Tree& tree, double eps,
                       std::size_t min_pts);

}  // namespace mrscan::gpu
