// Shared result types for the GPGPU DBSCAN implementations.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dbscan/labels.hpp"
#include "gpu/device.hpp"

namespace mrscan::gpu {

/// Per-leaf counters. core/mrscan.cpp's field table lists every member
/// once, for the metrics mirror and the checkpoint blob alike.
struct GpuDbscanStats {
  std::uint64_t dense_boxes = 0;
  std::uint64_t dense_points = 0;  // points eliminated by dense box
  std::uint64_t chains = 0;        // block expansion chains created
  std::uint64_t collisions = 0;    // chain collisions merged
  std::uint64_t distance_ops = 0;
  std::uint64_t kernel_launches = 0;
  std::uint64_t h2d_transfers = 0;
  std::uint64_t d2h_transfers = 0;
  double device_seconds = 0.0;  // simulated GPU time (kernels + copies)

  // Cell-graph path only (mirrored as cluster.cellgraph.* metrics;
  // all zero when the leaf ran the two-pass path).
  std::uint64_t cellgraph_cells = 0;       // occupied grid cells
  std::uint64_t cellgraph_core_cells = 0;  // cells core wholesale (>= MinPts)
  std::uint64_t cellgraph_wholesale_points = 0;  // points they cover
  std::uint64_t cellgraph_bcp_pairs = 0;  // cell pairs closest-pair-tested
  std::uint64_t cellgraph_bcp_ops = 0;    // distance ops those tests spent

  // BVH backend only (mirrored as gpu.bvh.* metrics; zero on the KD-tree
  // backend): nodes visited by the fused traversals. Each step is charged
  // to the K20 cost model on top of the distance tests, so distance_ops
  // includes them.
  std::uint64_t bvh_node_steps = 0;

  bool operator==(const GpuDbscanStats&) const = default;
};

struct GpuDbscanResult {
  dbscan::Labeling labels;
  GpuDbscanStats stats;
};

/// Capture the per-run delta of a device's counters.
class DeviceStatsDelta {
 public:
  explicit DeviceStatsDelta(const VirtualDevice& device)
      : device_(device), start_(device.stats()) {}

  void fill(GpuDbscanStats& stats) const {
    const DeviceStats& now = device_.stats();
    stats.distance_ops = now.total_ops - start_.total_ops;
    stats.kernel_launches = now.kernel_launches - start_.kernel_launches;
    stats.h2d_transfers = now.h2d_transfers - start_.h2d_transfers;
    stats.d2h_transfers = now.d2h_transfers - start_.d2h_transfers;
    stats.device_seconds = now.device_seconds() - start_.device_seconds();
  }

 private:
  const VirtualDevice& device_;
  DeviceStats start_;
};

}  // namespace mrscan::gpu
