// The long-lived clustering service (DESIGN §14).
//
// Batch Mr. Scan answers one question once: "what are the clusters of
// this file?". ClusterService keeps answering it as the data changes:
// it owns a mutable Eps/(2*sqrt(2)) cell grid, absorbs insert/remove
// mutations into a pending buffer, and on advance_epoch() re-clusters
// only the dirty cells plus their ring-3 neighbourhoods — the cell-graph
// machinery of DESIGN §12 (wholesale core marking, BCP edge tests,
// connected components over cells) rerun on the affected region only,
// with per-cell link masks and component ids kept from earlier epochs
// everywhere else. The epoch publishes an immutable snapshot behind a
// std::shared_ptr; queries (label_of, cluster_stats, snapshot) copy the
// current pointer, so readers never block mutations and each retired
// epoch is freed when its own last holder drops it.
//
// Correctness contract: after every epoch, the published labels are
// `same_clustering`-equivalent to a cold batch core::MrScan run over the
// live point set (the differential battery proves it across cluster
// algos, host_threads, and fault plans). The three pillars:
//   * core flags are exact — a mutation can only flip core status within
//     Eps of itself, i.e. inside the dirty cell's ring-3 neighbourhood,
//     which is exactly the recompute region;
//   * cluster structure is the connected components of the core-cell
//     graph whose edges are BCP links — links are only re-tested, and
//     components only re-derived, where an endpoint cell's core
//     membership changed;
//   * border anchors use the global lowest-point-id tie-break that the
//     batch border pass (gpu/mrscan_gpu.cpp) uses, which is partition-
//     invariant, so serve and batch resolve identical anchors.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/mutable_grid.hpp"
#include "dbscan/labels.hpp"
#include "fault/injector.hpp"
#include "geometry/bbox.hpp"
#include "geometry/point.hpp"
#include "obs/registry.hpp"
#include "sim/titan.hpp"
#include "util/thread_pool.hpp"

namespace mrscan::serve {

struct ServeConfig {
  dbscan::DbscanParams params{0.1, 40};
  /// Host worker threads for the per-epoch core/anchor recompute loops.
  /// Output is bit-identical for any value (DESIGN §8): workers write
  /// only their own cells' slots and op counters reduce after the
  /// barrier. 0 = hardware concurrency.
  std::size_t host_threads = 1;
  /// Seeded fault plan for maintenance epochs: epoch e plays the role of
  /// node e, so `plan.drop(e, attempt)` loses that epoch's publish
  /// attempts (retried with backoff on the virtual clock; exhausting the
  /// budget fails the epoch cleanly, leaving the previous snapshot
  /// current and the mutations pending) and `plan.slow(e, f)` stretches
  /// its virtual seconds. Labels are never affected — the differential
  /// battery asserts it.
  fault::FaultPlan fault_plan;
  /// Machine model pricing epoch compute on the virtual clock.
  sim::TitanParams titan;
};

/// Per-cluster aggregate served by cluster_stats().
struct ClusterStats {
  std::uint64_t size = 0;
  std::uint64_t core_points = 0;
  double weight = 0.0;
  geom::BBox bbox;
};

/// What one advance_epoch() did (also mirrored into serve.* metrics).
struct EpochStats {
  std::uint64_t epoch = 0;
  std::uint64_t inserts = 0;
  std::uint64_t removes = 0;
  /// Mutations refused: an insert of a live or already-pending id or of a
  /// point outside the grid's domain (non-finite coordinate, cell index
  /// beyond int32), and a remove of an unknown id.
  std::uint64_t rejected = 0;
  std::uint64_t dirty_cells = 0;
  /// Points whose core status was recomputed with distance work plus
  /// border points whose anchor was recomputed — the epoch's
  /// distance-level re-clustering footprint. Strictly below the live
  /// point count on sparse epochs (the incrementality the differential
  /// battery asserts); label materialization is O(live) bookkeeping and
  /// deliberately not counted.
  std::uint64_t recluster_points = 0;
  std::uint64_t distance_ops = 0;
  /// BCP cell-pair tests actually re-run (cache misses + invalidations).
  std::uint64_t edge_tests = 0;
  std::uint64_t retries = 0;
  double wall_seconds = 0.0;
  /// Virtual seconds (machine model): distance work priced at the Titan
  /// CPU op rate, plus fault retry backoff, scaled by any slow factor.
  double sim_seconds = 0.0;
  std::uint64_t live_points = 0;
  std::uint64_t clusters = 0;
};

struct EpochResult {
  bool ok = true;
  std::string error;
  EpochStats stats;
};

/// Immutable per-epoch publication: live points ascending by id with
/// canonical labels (first-appearance-in-id-order numbering, noise = -1).
struct EpochSnapshot {
  std::uint64_t epoch = 0;
  geom::PointSet points;
  std::vector<dbscan::ClusterId> labels;
  std::vector<std::uint8_t> core;
  /// Per-cluster aggregates, indexed by canonical cluster id.
  std::vector<ClusterStats> clusters;

  std::optional<dbscan::ClusterId> label_of(geom::PointId id) const;
};

class ClusterService {
 public:
  explicit ClusterService(ServeConfig config);
  ~ClusterService();
  ClusterService(const ClusterService&) = delete;
  ClusterService& operator=(const ClusterService&) = delete;

  const ServeConfig& config() const { return config_; }

  /// Queue a mutation for the next epoch. Duplicates (insert of a live or
  /// already-pending id, remove of an unknown id) and out-of-domain
  /// inserts are counted as rejected when the epoch applies them.
  void insert(const geom::Point& point);
  void remove(geom::PointId id);

  /// Bulk-insert `points` and run the initial epoch.
  EpochResult bootstrap(std::span<const geom::Point> points);

  /// Apply pending mutations and re-cluster the affected region. On a
  /// fault-failed epoch (retry budget exhausted) the previous snapshot
  /// stays current and the mutations stay pending for the next attempt.
  EpochResult advance_epoch();

  /// The current snapshot. Holding it keeps that epoch's snapshot, and
  /// only that one, alive, including after later epochs publish and after
  /// the service itself is destroyed.
  std::shared_ptr<const EpochSnapshot> snapshot() const;

  /// Point -> cluster lookup against the current snapshot (nullopt for
  /// unknown ids). Latency lands in the serve.query.seconds histogram.
  std::optional<dbscan::ClusterId> label_of(geom::PointId id) const;

  /// Aggregates of one cluster of the current snapshot.
  std::optional<ClusterStats> cluster_stats(dbscan::ClusterId cluster) const;

  std::uint64_t epoch() const;
  std::size_t live_points() const;
  std::size_t pending_mutations() const;

  /// The service's metrics registry (serve.* series).
  obs::Registry& metrics() { return registry_; }
  const obs::Registry& metrics() const { return registry_; }

 private:
  static constexpr std::uint32_t kNone = cluster::MutableCellGrid::kNoCell;

  struct PointRec {
    geom::Point point;
    /// Grid cell index; kNone once the point is removed.
    std::uint32_t cell = kNone;
    /// Border points: the cell of the lowest-id core point within Eps
    /// (kNone: noise). Stale on core points, which never read it.
    std::uint32_t anchor = kNone;
    bool core = false;
  };

  /// Per-cell state, indexed like the grid's cell table.
  struct CellState {
    /// Bit k: some core point of this cell is within Eps of some core
    /// point of the cell at ring offset k (core cells only).
    std::uint64_t linked = 0;
    /// Core members as of the last completed epoch; > 0 marks a core cell.
    std::uint32_t core_count = 0;
    /// Connected-component id of a core cell (kNone otherwise).
    std::uint32_t comp = kNone;
    /// This epoch's BCP core list (index into core_lists_), kNone if unbuilt.
    std::uint32_t core_list = kNone;
    /// This epoch's working-set membership (service.cpp's flag bits),
    /// reset when the epoch ends.
    std::uint8_t flags = 0;
  };

  /// A cell whose core membership changed this epoch, with its state as
  /// the previous epoch left it.
  struct ChangedCell {
    std::uint32_t cell = kNone;
    bool was_core = false;
    std::uint64_t old_linked = 0;
  };

  /// One cell's core points, gathered for BCP tests.
  struct CoreList {
    std::uint32_t cell = kNone;
    std::uint32_t begin = 0;  // range into core_points_
    std::uint32_t end = 0;
    geom::BBox bbox;
  };

  /// A cell followed by its occupied ring-3 neighbours in
  /// for_each_neighbor_within order: the scan order of every per-point
  /// neighbourhood walk.
  struct RingScan {
    std::array<std::uint32_t, cluster::kRingCells + 1> cells{};
    std::size_t size = 0;
  };

  struct Mutation {
    enum class Kind : std::uint8_t { kInsert, kRemove };
    Kind kind = Kind::kInsert;
    geom::Point point;  // remove uses point.id only
  };

  void apply_mutations(EpochStats& stats, std::vector<std::uint32_t>& dirty,
                       std::vector<std::uint32_t>& inserted,
                       std::vector<std::uint32_t>& removed);
  void collect_ring(std::uint32_t cell, std::uint8_t flag,
                    std::vector<std::uint32_t>& out);
  RingScan ring_scan(std::uint32_t cell) const;
  std::uint64_t classify_core_cells(const std::vector<std::uint32_t>& cells,
                                    std::vector<ChangedCell>& changed);
  std::uint64_t relink(const std::vector<ChangedCell>& changed,
                       std::uint64_t& edge_tests);
  bool bcp_linked(std::uint32_t a, std::uint32_t b, std::uint64_t& ops);
  std::uint32_t core_list(std::uint32_t cell);
  void recompute_components(const std::vector<ChangedCell>& changed);
  void release_component(std::uint32_t comp);
  std::uint64_t recompute_anchors(const std::vector<std::uint32_t>& cells);
  std::shared_ptr<EpochSnapshot> materialize(
      EpochStats& stats, std::vector<std::uint32_t>& inserted);
  void publish(std::shared_ptr<const EpochSnapshot> snapshot);

  ServeConfig config_;
  double eps2_ = 0.0;
  fault::FaultInjector injector_;
  util::ThreadPool pool_;

  // ---- clustering state (single-writer: mutations + epochs) ----
  std::vector<PointRec> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Live id -> slot; only looked up, never iterated.
  std::unordered_map<geom::PointId, std::uint32_t> index_;
  /// Live slots in ascending id order: the snapshot's iteration surface,
  /// rebuilt by the snapshot pass each epoch.
  std::vector<std::uint32_t> order_;
  cluster::MutableCellGrid grid_;
  std::vector<CellState> cell_state_;
  /// Cells per component id; ids at zero are on free_comps_.
  std::vector<std::uint32_t> comp_cells_;
  std::vector<std::uint32_t> free_comps_;
  /// This epoch's BCP core lists (cleared when the epoch ends).
  std::vector<CoreList> core_lists_;
  std::vector<geom::Point> core_points_;
  std::vector<Mutation> pending_;
  std::uint64_t epoch_ = 0;
  double sim_seconds_total_ = 0.0;

  // ---- publication (readers vs the writer) ----
  /// Guards current_; held only to copy or swap the pointer.
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const EpochSnapshot> current_;

  // Thread-safe (one mutex); mutable so const query paths
  // can record their own latency.
  mutable obs::Registry registry_;
};

}  // namespace mrscan::serve
