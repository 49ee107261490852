// The sweep step (§3.4): globally identify clusters and write the output.
//
// After the root's final merge, each cluster gets a globally unique id;
// the labelling information is sent back down the tree, each level
// reversing its merge operation via the child_cluster_map recorded during
// the merge; leaves label their owned points with global cluster ids, and
// the records are written in leaf delivery order.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <unordered_map>
#include <vector>

#include "dbscan/labels.hpp"
#include "geometry/point.hpp"
#include "merge/summary.hpp"

namespace mrscan::sweep {

/// Global ids assigned by the root.
struct GlobalAssignment {
  std::size_t cluster_count = 0;
};

/// Assign global ids 0..k-1 to the root's merged clusters (in summary
/// order).
GlobalAssignment assign_global_ids(const merge::MergeSummary& root_summary);

/// A clustered output record.
struct LabeledPoint {
  geom::Point point;
  dbscan::ClusterId cluster = dbscan::kNoise;

  friend bool operator==(const LabeledPoint&, const LabeledPoint&) = default;
};

/// Label a leaf's owned points with global ids: local cluster c maps to
/// global_of_local[c]; noise points are dropped (the output file contains
/// "the points included in a cluster and their cluster IDs", §3).
std::vector<LabeledPoint> label_owned_points(
    std::span<const geom::Point> owned_points,
    const dbscan::Labeling& labels,
    std::span<const std::int64_t> global_of_local,
    bool keep_noise = false);

/// How many records label_owned_points yields for a leaf whose owned
/// points carry `owned_labels`: all of them with keep_noise, else the
/// clustered ones.
std::size_t owned_record_count(std::span<const dbscan::ClusterId> owned_labels,
                               bool keep_noise);

/// The same records, written into caller storage: `out` must hold exactly
/// owned_record_count of them, so leaves can label into disjoint spans of
/// one output at once.
void label_owned_points(std::span<const geom::Point> owned_points,
                        const dbscan::Labeling& labels,
                        std::span<const std::int64_t> global_of_local,
                        bool keep_noise, std::span<LabeledPoint> out);

/// Write labeled points as text: "id x y weight cluster" per line. The
/// id and cluster are decimal integers; x, y and the weight (widened to
/// double) are printf "%.17g", which round-trips every double. The bytes
/// do not depend on the C++ locale or on `threads`: up to that many pool
/// workers (0 = hardware concurrency, capped at the number of slices)
/// format fixed slices of the records and append them in order. Throws
/// std::runtime_error naming the path and errno on any open, write or
/// close failure.
void write_labeled_text(const std::filesystem::path& path,
                        std::span<const LabeledPoint> records,
                        std::size_t threads = 0);

/// Align a clustered output with an input point order: result[i] is the
/// cluster of points[i] (noise when absent from `records`). Used by the
/// quality benches to compare against the single-CPU reference.
std::vector<dbscan::ClusterId> labels_in_input_order(
    std::span<const geom::Point> points,
    std::span<const LabeledPoint> records);

/// True when two labelings induce the same clustering up to a renaming of
/// cluster ids: noise sets coincide and a bijection maps a's labels onto
/// b's. Global ids are assigned in root-merge order, which legitimately
/// depends on the tree shape; the induced partition must not — this is the
/// oracle the differential and fault batteries assert with.
bool equivalent_partitions(std::span<const dbscan::ClusterId> a,
                           std::span<const dbscan::ClusterId> b);

/// equivalent_partitions restricted to points with mask[i] != 0. Used to
/// compare against sequential DBSCAN on its core points only, where the
/// assignment is order-independent (border-point ties are not, §2.1).
bool equivalent_partitions_where(std::span<const dbscan::ClusterId> a,
                                 std::span<const dbscan::ClusterId> b,
                                 std::span<const std::uint8_t> mask);

}  // namespace mrscan::sweep
