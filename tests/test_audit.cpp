// The deep invariant-audit layer (util/audit.hpp + per-phase audits).
//
// Audit functions are compiled unconditionally (only the pipeline call
// sites are gated by MRSCAN_CHECK_INVARIANTS), so these tests exercise
// them directly in every build configuration: real pipeline output must
// pass, and a corrupted structure must abort with an audit message.
#include <gtest/gtest.h>

#include <vector>

#include "data/twitter.hpp"
#include "geometry/bbox.hpp"
#include "gpu/audit.hpp"
#include "gpu/dense_box.hpp"
#include "index/cell_histogram.hpp"
#include "index/kdtree.hpp"
#include "merge/audit.hpp"
#include "merge/merger.hpp"
#include "partition/audit.hpp"
#include "partition/partitioner.hpp"
#include "util/audit.hpp"

namespace mg = mrscan::geom;
namespace mi = mrscan::index;
namespace mp = mrscan::partition;
namespace mm = mrscan::merge;
namespace mgpu = mrscan::gpu;

namespace {

constexpr char kAuditMsg[] = "invariant audit failed";

struct PlanFixture {
  mg::PointSet points;
  mg::GridGeometry geometry;
  mi::CellHistogram hist;
  mp::PartitionerConfig config;
  mp::PartitionPlan plan;

  explicit PlanFixture(std::uint64_t n = 20000, double eps = 0.1)
      : points([n] {
          mrscan::data::TwitterConfig tc;
          tc.num_points = n;
          tc.seed = 7;
          return mrscan::data::generate_twitter(tc);
        }()),
        geometry{mg::bbox_of(points).min_x, mg::bbox_of(points).min_y, eps},
        hist(geometry, points),
        config{8, 4, true, 1.075},
        plan(mp::plan_partitions(hist, geometry, config)) {}
};

mm::MergeSummary tiny_summary(mg::PointId id, double x, double y) {
  mm::MergeSummary s;
  mm::CellSummary cell;
  cell.cell_code = mg::cell_code(mg::CellKey{0, 0});
  cell.reps = {mm::SummaryPoint{id, x, y}};
  mm::ClusterSummary cluster;
  cluster.owned_points = 5;
  cluster.cells.push_back(std::move(cell));
  s.clusters.push_back(std::move(cluster));
  return s;
}

}  // namespace

TEST(AuditBuildMode, GateMatchesCompileDefinition) {
#ifdef MRSCAN_AUDIT
  EXPECT_TRUE(mrscan::util::kAuditEnabled);
#else
  EXPECT_FALSE(mrscan::util::kAuditEnabled);
#endif
}

TEST(PartitionAudit, AcceptsRealPlannerOutput) {
  PlanFixture f;
  // Threshold not captured here; pass 0 to audit everything but the bound.
  mp::audit_plan(f.plan, f.hist, f.config, 0.0);
  // And with the bound: recompute the threshold the way the planner does.
  const double mean =
      static_cast<double>(f.plan.total_points_with_shadow()) /
      static_cast<double>(f.plan.part_count());
  // The post-move mean drifts from the planner's pre-move value, so only
  // a generous bound is re-derivable from the outside; the in-pipeline
  // audit (MRSCAN_CHECK_INVARIANTS builds) uses the exact one.
  mp::audit_plan(f.plan, f.hist, f.config,
                 f.config.rebalance_threshold * mean * 1.10);
}

TEST(PartitionAudit, AcceptsRefinedGridPlans) {
  PlanFixture f;
  mp::PartitionerConfig refined = f.config;
  refined.cell_refine = 2;
  mg::GridGeometry fine{f.geometry.origin_x, f.geometry.origin_y,
                        f.geometry.cell_size / 2.0};
  mi::CellHistogram fine_hist(fine, f.points);
  const auto plan = mp::plan_partitions(fine_hist, fine, refined);
  mp::audit_plan(plan, fine_hist, refined, 0.0);
}

TEST(PartitionAuditDeath, CatchesMissingShadowCell) {
  PlanFixture f;
  ASSERT_GE(f.plan.part_count(), 2u);
  ASSERT_FALSE(f.plan.parts[1].shadow_cells.empty());
  auto broken = f.plan;
  broken.parts[1].shadow_cells.pop_back();
  // Either the point counts or shadow completeness trips — both abort.
  EXPECT_DEATH(mp::audit_plan(broken, f.hist, f.config, 0.0), kAuditMsg);
}

TEST(PartitionAuditDeath, CatchesCountDrift) {
  PlanFixture f;
  auto broken = f.plan;
  broken.parts[0].owned_points += 1;
  EXPECT_DEATH(mp::audit_plan(broken, f.hist, f.config, 0.0), kAuditMsg);
}

TEST(PartitionAuditDeath, CatchesDoubleOwnership) {
  PlanFixture f;
  ASSERT_GE(f.plan.part_count(), 2u);
  auto broken = f.plan;
  broken.parts[1].owned_cells.push_back(broken.parts[0].owned_cells[0]);
  EXPECT_DEATH(mp::audit_plan(broken, f.hist, f.config, 0.0), kAuditMsg);
}

TEST(PartitionAuditDeath, CatchesEmptyPart) {
  PlanFixture f;
  auto broken = f.plan;
  broken.parts.emplace_back();  // owns nothing, shadows nothing
  EXPECT_DEATH(mp::audit_plan(broken, f.hist, f.config, 0.0),
               "empty partition");
}

TEST(MergeAudit, AcceptsRealMergeOutput) {
  const auto a = tiny_summary(1, 0.4, 0.4);
  const auto b = tiny_summary(2, 0.6, 0.6);
  const mg::GridGeometry geom{0.0, 0.0, 1.0};
  const auto result = mm::merge_summaries({a, b}, geom, 1.0);
  mm::audit_merge(result, {a, b});
}

TEST(MergeAuditDeath, CatchesOwnedPointLoss) {
  const auto a = tiny_summary(1, 0.4, 0.4);
  const auto b = tiny_summary(2, 0.6, 0.6);
  const mg::GridGeometry geom{0.0, 0.0, 1.0};
  auto result = mm::merge_summaries({a, b}, geom, 1.0);
  result.merged.clusters[0].owned_points += 1;
  EXPECT_DEATH(mm::audit_merge(result, {a, b}), kAuditMsg);
}

TEST(MergeAuditDeath, CatchesRepOverflow) {
  const auto a = tiny_summary(1, 0.4, 0.4);
  const mg::GridGeometry geom{0.0, 0.0, 1.0};
  auto result = mm::merge_summaries({a}, geom, 1.0);
  auto& reps = result.merged.clusters[0].cells[0].reps;
  for (mg::PointId id = 100; reps.size() <= mm::kMaxRepsPerCell; ++id) {
    reps.push_back(mm::SummaryPoint{id, 0.5, 0.5});
  }
  EXPECT_DEATH(mm::audit_merge(result, {a}), kAuditMsg);
}

TEST(MergeAuditDeath, CatchesBrokenRoutingTable) {
  const auto a = tiny_summary(1, 0.4, 0.4);
  const auto b = tiny_summary(2, 0.6, 0.6);
  const mg::GridGeometry geom{0.0, 0.0, 1.0};
  auto result = mm::merge_summaries({a, b}, geom, 1.0);
  result.child_cluster_map[0][0] = 999;
  EXPECT_DEATH(mm::audit_merge(result, {a, b}), kAuditMsg);
}

TEST(DenseBoxAudit, AcceptsRealDetectorOutput) {
  const double eps = 0.2;
  mrscan::data::TwitterConfig tc;
  tc.num_points = 20000;
  tc.seed = 11;
  const auto pts = mrscan::data::generate_twitter(tc);
  const mi::KDTree tree(
      pts, mi::KDTreeConfig{64, mgpu::dense_box_side(eps)});
  const auto boxes = mgpu::detect_dense_boxes(tree, eps, 10);
  mgpu::audit_dense_boxes(boxes, tree, eps, 10);
}

TEST(DenseBoxAuditDeath, CatchesCoverageDrift) {
  const double eps = 0.2;
  mrscan::data::TwitterConfig tc;
  tc.num_points = 20000;
  tc.seed = 11;
  const auto pts = mrscan::data::generate_twitter(tc);
  const mi::KDTree tree(
      pts, mi::KDTreeConfig{64, mgpu::dense_box_side(eps)});
  auto boxes = mgpu::detect_dense_boxes(tree, eps, 10);
  ASSERT_GT(boxes.count(), 0u);
  boxes.covered_points += 1;
  EXPECT_DEATH(mgpu::audit_dense_boxes(boxes, tree, eps, 10), kAuditMsg);
}

TEST(DenseBoxAuditDeath, CatchesRemappedPoint) {
  const double eps = 0.2;
  mrscan::data::TwitterConfig tc;
  tc.num_points = 20000;
  tc.seed = 11;
  const auto pts = mrscan::data::generate_twitter(tc);
  const mi::KDTree tree(
      pts, mi::KDTreeConfig{64, mgpu::dense_box_side(eps)});
  auto boxes = mgpu::detect_dense_boxes(tree, eps, 10);
  ASSERT_GT(boxes.count(), 0u);
  const auto leaf = tree.leaves()[boxes.leaf_ids[0]];
  boxes.box_of_point[tree.order()[leaf.begin]] = mgpu::DenseBoxes::kNone;
  EXPECT_DEATH(mgpu::audit_dense_boxes(boxes, tree, eps, 10), kAuditMsg);
}
