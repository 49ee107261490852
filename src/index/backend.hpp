// Spatial-index backend selection for the per-leaf GPGPU clustering.
//
// Two interchangeable backends drive the classification/expansion kernels
// (the differential battery proves bit-identical output across them):
//   * kKdTree — the region-leaf KD-tree after CUDA-DClust (§3.2.1), the
//               oracle. Kernels materialize each neighbor span through the
//               batched `radius_query_many` API.
//   * kBvh    — the Morton-ordered bounding volume hierarchy (after
//               Karras-style LBVH builds and ArborX's FDBSCAN): kernels
//               run *fused* traversals that invoke the union /
//               classification callback inside the tree walk, so no
//               neighbor list is ever materialized, and the K20 cost
//               model is charged per visited node as well as per distance
//               test (DESIGN §13).
#pragma once

#include <optional>
#include <string_view>

namespace mrscan::index {

enum class Backend {
  kKdTree,
  kBvh,
};

/// Stable spelling for CLI flags, env overrides, and bench labels.
constexpr std::string_view to_string(Backend backend) {
  switch (backend) {
    case Backend::kBvh:
      return "bvh";
    case Backend::kKdTree:
      break;
  }
  return "kdtree";
}

/// Parse the spelling above; nullopt on anything else.
inline std::optional<Backend> parse_backend(std::string_view s) {
  if (s == "kdtree") return Backend::kKdTree;
  if (s == "bvh") return Backend::kBvh;
  return std::nullopt;
}

}  // namespace mrscan::index
