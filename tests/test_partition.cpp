#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <unordered_set>

#include "data/sdss.hpp"
#include "data/synthetic.hpp"
#include "data/twitter.hpp"
#include "geometry/rep_points.hpp"
#include "index/grid.hpp"
#include "partition/audit.hpp"
#include "partition/distributed.hpp"
#include "partition/materialize.hpp"
#include "partition/partitioner.hpp"
#include "pin_digest.hpp"
#include "util/thread_pool.hpp"

namespace mg = mrscan::geom;
namespace mi = mrscan::index;
namespace mp = mrscan::partition;

namespace {

mg::PointSet twitter_points(std::uint64_t n, std::uint64_t seed = 1) {
  mrscan::data::TwitterConfig config;
  config.num_points = n;
  config.seed = seed;
  return mrscan::data::generate_twitter(config);
}

/// Where the grid is anchored. At the data's lower-left corner every cell
/// key is non-negative; at the bounding-box centre about three quarters
/// of the keys have a negative ix or iy, so code order is not grid order.
enum class Origin { kLowerLeft, kCentre };

mg::GridGeometry grid_of(const mg::PointSet& points, double eps,
                         Origin origin) {
  const mg::BBox box = mg::bbox_of(points);
  if (origin == Origin::kLowerLeft) return {box.min_x, box.min_y, eps};
  return {0.5 * (box.min_x + box.max_x), 0.5 * (box.min_y + box.max_y), eps};
}

struct TestData {
  mg::PointSet points;
  mg::GridGeometry geometry;
  mi::CellHistogram hist;

  TestData(mg::PointSet pts, double eps, Origin origin = Origin::kLowerLeft)
      : points(std::move(pts)),
        geometry(grid_of(points, eps, origin)),
        hist(geometry, points) {}
};

}  // namespace

TEST(Partitioner, CoversAllCellsExactlyOnce) {
  TestData s(twitter_points(30000), 0.1);
  const mp::PartitionerConfig config{16, 4, true, 1.075};
  const auto plan = mp::plan_partitions(s.hist, s.geometry, config);
  mp::audit_plan(plan, s.hist, config, 0.0);  // aborts on any violation
  EXPECT_LE(plan.part_count(), 16u);
  EXPECT_GE(plan.part_count(), 2u);
  EXPECT_EQ(plan.total_owned_points(), s.points.size());
}

TEST(Partitioner, PartitionsAreRoughlyBalanced) {
  TestData s(twitter_points(60000), 0.1);
  mp::PartitionerConfig config{32, 4, true, 1.075};
  const auto plan = mp::plan_partitions(s.hist, s.geometry, config);
  const double mean =
      static_cast<double>(plan.total_points_with_shadow()) /
      static_cast<double>(plan.part_count());
  // After rebalancing, every multi-cell partition except the first
  // respects the threshold: single-cell partitions cannot be subdivided
  // (the paper's dense-cell limit) and the first partition absorbs the
  // residue of the backward pass (Figure 2d). Shadow sizes drift as
  // ownership moves — more so with the 2*Eps halos — hence the 15% slack.
  for (std::size_t pi = 1; pi < plan.part_count(); ++pi) {
    const auto& part = plan.parts[pi];
    if (part.owned_cells.size() > 1) {
      EXPECT_LE(static_cast<double>(part.total_points()),
                config.rebalance_threshold * mean * 1.15)
          << "partition " << pi;
    }
  }
}

TEST(Partitioner, RebalanceShrinksLastPartition) {
  // Sequential packing dumps the residue into the last partition; the
  // rebalance pass must shrink it (Figure 2).
  TestData s(twitter_points(50000), 0.1);
  mp::PartitionerConfig no_reb{16, 4, false, 1.075};
  mp::PartitionerConfig reb{16, 4, true, 1.075};
  const auto before = mp::plan_partitions(s.hist, s.geometry, no_reb);
  const auto after = mp::plan_partitions(s.hist, s.geometry, reb);
  ASSERT_EQ(before.part_count(), after.part_count());
  const auto& last_before = before.parts.back();
  const auto& last_after = after.parts.back();
  EXPECT_LE(last_after.total_points(), last_before.total_points());

  // Spread (max/mean) must not get meaningfully worse. It is not strictly
  // monotone: trimming a boundary cell drags its whole 2*Eps halo into
  // the receiving partition, so on hot-spot-heavy inputs a trim can bump
  // another partition's total slightly above the old maximum.
  auto spread = [](const mp::PartitionPlan& plan) {
    std::uint64_t mx = 0, total = 0;
    for (const auto& p : plan.parts) {
      mx = std::max(mx, p.total_points());
      total += p.total_points();
    }
    return static_cast<double>(mx) * plan.part_count() /
           static_cast<double>(total);
  };
  EXPECT_LE(spread(after), spread(before) * 1.15);
}

TEST(Partitioner, ShadowRegionsAreExactlyTheNonOwnedNeighbors) {
  // Shadow = every non-empty cell within shadow_rings (2*Eps) of an owned
  // cell that the partition does not own itself — no more, no less.
  TestData s(twitter_points(20000), 0.1);
  const auto plan = mp::plan_partitions(
      s.hist, s.geometry, mp::PartitionerConfig{8, 4, true, 1.075});
  ASSERT_EQ(plan.shadow_rings, 2);
  for (std::size_t pi = 0; pi < plan.part_count(); ++pi) {
    const auto& part = plan.parts[pi];
    const std::set<std::uint64_t> owned(part.owned_cells.begin(),
                                        part.owned_cells.end());
    std::set<std::uint64_t> expected;
    for (const std::uint64_t code : part.owned_cells) {
      mg::for_each_neighbor_within(
          mg::cell_from_code(code), plan.shadow_rings, [&](mg::CellKey nbr) {
            if (s.hist.count_of(nbr) == 0) return;
            if (owned.contains(mg::cell_code(nbr))) return;
            expected.insert(mg::cell_code(nbr));
          });
    }
    std::set<std::uint64_t> got(part.shadow_cells.begin(),
                                part.shadow_cells.end());
    EXPECT_EQ(got, expected) << "partition " << pi;
  }
}

TEST(Partitioner, EveryPartitionHasAtLeastMinPtsWhenPossible) {
  TestData s(twitter_points(40000), 0.1);
  const std::size_t min_pts = 40;
  const auto plan = mp::plan_partitions(
      s.hist, s.geometry, mp::PartitionerConfig{32, min_pts, true, 1.075});
  for (const auto& part : plan.parts) {
    EXPECT_GE(part.owned_points, min_pts);
  }
}

TEST(Partitioner, SinglePartitionOwnsEverything) {
  TestData s(twitter_points(5000), 0.1);
  const auto plan = mp::plan_partitions(
      s.hist, s.geometry, mp::PartitionerConfig{1, 4, true, 1.075});
  ASSERT_EQ(plan.part_count(), 1u);
  EXPECT_EQ(plan.parts[0].owned_points, 5000u);
  EXPECT_TRUE(plan.parts[0].shadow_cells.empty());
}

TEST(Partitioner, MorePartsThanCellsClamps) {
  // 10 points in a handful of cells, 1000 requested partitions.
  TestData s(mrscan::data::uniform_points(10, mg::BBox{0, 0, 1, 1}, 3), 0.5);
  const mp::PartitionerConfig config{1000, 1, true, 1.075};
  const auto plan = mp::plan_partitions(s.hist, s.geometry, config);
  EXPECT_LE(plan.part_count(), s.hist.cell_count());
  mp::audit_plan(plan, s.hist, config, 0.0);
}

TEST(Partitioner, EmptyHistogram) {
  mi::CellHistogram empty;
  const auto plan = mp::plan_partitions(
      empty, mg::GridGeometry{0, 0, 1.0},
      mp::PartitionerConfig{4, 4, true, 1.075});
  EXPECT_EQ(plan.part_count(), 0u);
  // The config is checked before an empty histogram returns early.
  EXPECT_THROW(mp::plan_partitions(
                   empty, mg::GridGeometry{0, 0, 1.0},
                   mp::PartitionerConfig{4, 4, true, 1.075, true, 0}),
               std::invalid_argument);
}

TEST(Partitioner, PartitionsAreContiguousInGridOrder) {
  // Packing hands out cells in grid order, and the backward pass only
  // moves a part's first cell to the end of the part before it, so with
  // or without rebalancing every part owns one contiguous run of grid
  // order: the parts' owned lists, concatenated, are the histogram's
  // cells in grid order.
  TestData s(twitter_points(30000), 0.1);
  std::vector<std::uint64_t> grid_order;
  for (const auto& e : s.hist.entries()) grid_order.push_back(e.code);
  std::sort(grid_order.begin(), grid_order.end(),
            [](std::uint64_t a, std::uint64_t b) {
              return mg::cell_from_code(a) < mg::cell_from_code(b);
            });
  for (const bool rebalance : {false, true}) {
    SCOPED_TRACE(rebalance ? "rebalance on" : "rebalance off");
    const auto plan = mp::plan_partitions(
        s.hist, s.geometry, mp::PartitionerConfig{8, 4, rebalance, 1.075});
    ASSERT_EQ(plan.part_count(), 8u);
    EXPECT_EQ(plan.rebalance_moves > 0, rebalance);
    std::vector<std::uint64_t> concatenated;
    for (const auto& part : plan.parts) {
      concatenated.insert(concatenated.end(), part.owned_cells.begin(),
                          part.owned_cells.end());
    }
    EXPECT_EQ(concatenated, grid_order);
  }
}

TEST(Materialize, SegmentsContainOwnedAndShadowPoints) {
  TestData s(twitter_points(10000), 0.1);
  const auto plan = mp::plan_partitions(
      s.hist, s.geometry, mp::PartitionerConfig{4, 4, true, 1.075});
  const mi::Grid grid(s.geometry, s.points);
  const auto segments = mp::materialize_partitions(plan, grid, s.points);
  ASSERT_EQ(segments.size(), plan.part_count());

  std::size_t total_owned = 0;
  std::unordered_set<std::uint64_t> seen_ids;
  for (std::size_t pi = 0; pi < segments.size(); ++pi) {
    EXPECT_EQ(segments[pi].owned.size(), plan.parts[pi].owned_points);
    EXPECT_EQ(segments[pi].shadow.size(), plan.parts[pi].shadow_points);
    total_owned += segments[pi].owned.size();
    for (const auto& p : segments[pi].owned) {
      EXPECT_TRUE(seen_ids.insert(p.id).second)
          << "point owned by two partitions";
    }
  }
  EXPECT_EQ(total_owned, s.points.size());
}

TEST(Materialize, GatherEqualsMaterializedPartition) {
  // A resident run copies no segment: each leaf gathers its points from
  // the phase's grid. They must be exactly materialize_partition's owned
  // points followed by its shadow points, in order, and the phase's counts
  // must be their sizes, shadow representatives included.
  const auto points = twitter_points(50'000);
  const mrscan::sim::TitanParams titan;
  mrscan::util::ThreadPool pool(2);
  for (const std::size_t refine : {1UL, 2UL}) {
    for (const std::size_t threshold : {0UL, 32UL}) {
      SCOPED_TRACE("cell_refine " + std::to_string(refine) + ", threshold " +
                   std::to_string(threshold));
      mp::DistributedPartitionerConfig config;
      config.eps = 0.1;
      config.partition_nodes = 4;
      config.planner = mp::PartitionerConfig{8, 4, true, 1.075, true, refine};
      config.materialize.shadow_rep_threshold = threshold;
      const auto phase =
          mp::run_distributed_partitioner(points, config, titan, pool);
      ASSERT_EQ(phase.plan.part_count(), 8u);
      ASSERT_EQ(phase.segment_counts.size(), phase.plan.part_count());
      ASSERT_TRUE(phase.grid.has_value());
      const mi::Grid grid(phase.plan.geometry, points);
      std::uint64_t shadow = 0;
      for (std::size_t pi = 0; pi < phase.plan.part_count(); ++pi) {
        const auto seg = mp::materialize_partition(phase.plan, pi, grid,
                                                   points, config.materialize);
        mg::PointSet expected = seg.owned;
        expected.insert(expected.end(), seg.shadow.begin(), seg.shadow.end());
        mg::PointSet gathered;
        mp::gather_partition(phase.plan, pi, *phase.grid, points,
                             config.materialize, gathered);
        EXPECT_TRUE(gathered == expected) << "part " << pi;
        EXPECT_EQ(phase.segment_counts[pi].owned, seg.owned.size());
        EXPECT_EQ(phase.segment_counts[pi].shadow, seg.shadow.size());
        shadow += seg.shadow.size();
      }
      // The threshold must bite, or the representatives go untested.
      const std::uint64_t planned =
          phase.plan.total_points_with_shadow() -
          phase.plan.total_owned_points();
      if (threshold == 0) {
        EXPECT_EQ(shadow, planned);
      } else {
        EXPECT_LT(shadow, planned);
      }
    }
  }
}

TEST(Materialize, GridAtAnotherGeometryThrows) {
  // A grid at the plan's cell size but another origin buckets the points
  // into other cells, so its segments would be silently wrong.
  TestData s(twitter_points(2000), 0.1);
  const auto plan = mp::plan_partitions(
      s.hist, s.geometry, mp::PartitionerConfig{4, 4, true, 1.075});
  mg::GridGeometry shifted_x = s.geometry;
  shifted_x.origin_x += 0.05;
  mg::GridGeometry shifted_y = s.geometry;
  shifted_y.origin_y -= 0.05;
  mg::GridGeometry other_size = s.geometry;
  other_size.cell_size *= 2.0;
  for (const mg::GridGeometry& geometry : {shifted_x, shifted_y, other_size}) {
    const mi::Grid grid(geometry, s.points);
    EXPECT_THROW(mp::materialize_partition(plan, 0, grid, s.points),
                 std::invalid_argument);
  }
  const mi::Grid grid(s.geometry, s.points);
  EXPECT_NO_THROW(mp::materialize_partition(plan, 0, grid, s.points));
}

TEST(Materialize, ShadowPointsCompleteTheEpsNeighborhood) {
  // Correctness property from §3.1.1: for every owned point, its full
  // Eps-neighbourhood is present in the partition (owned + shadow).
  TestData s(twitter_points(4000), 0.1);
  const double eps = 0.1;
  const auto plan = mp::plan_partitions(
      s.hist, s.geometry, mp::PartitionerConfig{4, 4, true, 1.075});
  const mi::Grid grid(s.geometry, s.points);
  const auto segments = mp::materialize_partitions(plan, grid, s.points);

  for (const auto& seg : segments) {
    std::unordered_set<std::uint64_t> present;
    for (const auto& p : seg.owned) present.insert(p.id);
    for (const auto& p : seg.shadow) present.insert(p.id);
    for (const auto& p : seg.owned) {
      for (const auto& q : s.points) {
        if (mg::within_eps(p, q, eps)) {
          EXPECT_TRUE(present.contains(q.id))
              << "missing neighbour " << q.id << " of owned point " << p.id;
        }
      }
    }
  }
}

TEST(Materialize, ShadowRepOptimisationShrinksDenseShadowCells) {
  TestData s(twitter_points(50000), 0.1);
  const auto plan = mp::plan_partitions(
      s.hist, s.geometry, mp::PartitionerConfig{8, 4, true, 1.075});
  const mi::Grid grid(s.geometry, s.points);
  const auto full = mp::materialize_partitions(plan, grid, s.points);
  mp::MaterializeConfig opt;
  opt.shadow_rep_threshold = 32;
  const auto reduced = mp::materialize_partitions(plan, grid, s.points, opt);

  std::size_t full_shadow = 0, reduced_shadow = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    full_shadow += full[i].shadow.size();
    reduced_shadow += reduced[i].shadow.size();
    // Owned contents are untouched by the optimisation.
    EXPECT_EQ(full[i].owned, reduced[i].owned);
  }
  EXPECT_LT(reduced_shadow, full_shadow);
}

TEST(RepPoints, AtMostEightAndFromCandidates) {
  const mg::GridGeometry g{0.0, 0.0, 1.0};
  const auto pts =
      mrscan::data::uniform_points(200, mg::BBox{0.0, 0.0, 1.0, 1.0}, 7);
  std::vector<std::uint32_t> all(pts.size());
  std::iota(all.begin(), all.end(), 0);
  const auto reps =
      mg::select_cell_representatives(g, mg::CellKey{0, 0}, pts, all);
  EXPECT_LE(reps.size(), 8u);
  EXPECT_GE(reps.size(), 1u);
  for (const auto idx : reps) EXPECT_LT(idx, pts.size());
  EXPECT_TRUE(std::is_sorted(reps.begin(), reps.end()));
}

TEST(RepPoints, CornerPointsAreChosen) {
  // Points exactly on the corners must be selected for those anchors.
  const mg::GridGeometry g{0.0, 0.0, 1.0};
  mg::PointSet pts{{0, 0.01, 0.01, 1.0f},
                   {1, 0.99, 0.01, 1.0f},
                   {2, 0.5, 0.5, 1.0f},
                   {3, 0.01, 0.99, 1.0f},
                   {4, 0.99, 0.99, 1.0f}};
  std::vector<std::uint32_t> all{0, 1, 2, 3, 4};
  const auto reps =
      mg::select_cell_representatives(g, mg::CellKey{0, 0}, pts, all);
  for (const std::uint32_t corner : {0u, 1u, 3u, 4u}) {
    EXPECT_NE(std::find(reps.begin(), reps.end(), corner), reps.end());
  }
}

TEST(RepPoints, EmptyCandidates) {
  const mg::GridGeometry g{0.0, 0.0, 1.0};
  mg::PointSet pts;
  EXPECT_TRUE(
      mg::select_cell_representatives(g, mg::CellKey{0, 0}, pts, {})
          .empty());
}

TEST(DistributedPartitioner, ProducesSamePlanAsSerial) {
  TestData s(twitter_points(20000), 0.1);
  mp::DistributedPartitionerConfig config;
  config.eps = 0.1;
  config.planner = mp::PartitionerConfig{8, 4, true, 1.075};
  config.partition_nodes = 4;
  mrscan::util::ThreadPool pool(1);
  const auto result = mp::run_distributed_partitioner(
      s.points, config, mrscan::sim::TitanParams{}, pool);

  const auto serial =
      mp::plan_partitions(s.hist, s.geometry, config.planner);
  ASSERT_EQ(result.plan.part_count(), serial.part_count());
  for (std::size_t pi = 0; pi < serial.part_count(); ++pi) {
    EXPECT_EQ(result.plan.parts[pi].owned_cells,
              serial.parts[pi].owned_cells);
    EXPECT_EQ(result.plan.parts[pi].shadow_points,
              serial.parts[pi].shadow_points);
  }
  // A resident phase copies no point: it returns one count per part and
  // the grid over every input point that the leaves gather from.
  EXPECT_EQ(result.segment_counts.size(), serial.part_count());
  ASSERT_TRUE(result.grid.has_value());
  EXPECT_EQ(result.grid->point_count(), s.points.size());
}

TEST(DistributedPartitioner, TimesBreakdownIsPopulated) {
  TestData s(twitter_points(10000), 0.1);
  mp::DistributedPartitionerConfig config;
  config.eps = 0.1;
  config.planner = mp::PartitionerConfig{4, 4, true, 1.075};
  config.partition_nodes = 2;
  mrscan::util::ThreadPool pool(1);
  const auto result = mp::run_distributed_partitioner(
      s.points, config, mrscan::sim::TitanParams{}, pool);
  EXPECT_GT(result.read_seconds, 0.0);
  EXPECT_GT(result.write_seconds, 0.0);
  EXPECT_GT(result.histogram_reduce_seconds, 0.0);
  EXPECT_GT(result.sim_seconds, result.write_seconds);
  // The paper's observation: writes dominate reads for this pattern.
  EXPECT_GT(result.write_seconds, result.read_seconds);
}

TEST(DistributedPartitioner, ModelModeMatchesPlanOfRealMode) {
  TestData s(twitter_points(20000), 0.1);
  mp::DistributedPartitionerConfig config;
  config.eps = 0.1;
  config.planner = mp::PartitionerConfig{8, 4, true, 1.075};
  config.partition_nodes = 4;

  mrscan::util::ThreadPool pool(1);
  const auto real = mp::run_distributed_partitioner(
      s.points, config, mrscan::sim::TitanParams{}, pool);
  const auto model = mp::run_distributed_partitioner_model(
      s.hist, s.geometry, s.points.size(), config,
      mrscan::sim::TitanParams{});
  ASSERT_EQ(model.plan.part_count(), real.plan.part_count());
  for (std::size_t pi = 0; pi < model.plan.part_count(); ++pi) {
    EXPECT_EQ(model.plan.parts[pi].owned_cells,
              real.plan.parts[pi].owned_cells);
  }
  EXPECT_TRUE(model.segment_counts.empty());
  EXPECT_FALSE(model.grid.has_value());
  EXPECT_EQ(real.segment_counts.size(), real.plan.part_count());
  ASSERT_TRUE(real.grid.has_value());
  EXPECT_EQ(real.grid->point_count(), s.points.size());
  EXPECT_GT(model.sim_seconds, 0.0);
}

// ---- the pinned partition phase -------------------------------------
//
// Digests of plan_partitions output and the exact cost fields of both
// partition-phase drivers, on fixed seeded inputs. A rewrite of the
// planner or the drivers must reproduce every plan and every simulated
// second bit for bit; any difference fails here.

namespace {

using mrscan::test::Digest;

std::uint64_t plan_digest(const mp::PartitionPlan& plan) {
  Digest d;
  d.add(plan.geometry.origin_x);
  d.add(plan.geometry.origin_y);
  d.add(plan.geometry.cell_size);
  d.add(static_cast<std::uint64_t>(plan.shadow_rings));
  d.add(std::uint64_t{plan.part_count()});
  d.add(plan.rebalance_moves);
  for (const auto& part : plan.parts) {
    d.add(part.owned_cells);
    d.add(part.shadow_cells);
    d.add(part.owned_points);
    d.add(part.shadow_points);
  }
  return d.value();
}

struct PlanPin {
  std::size_t parts;
  std::uint64_t rebalance_moves;
  std::uint64_t digest;
};

void expect_plan(const mp::PartitionPlan& plan, const PlanPin& pin) {
  EXPECT_EQ(plan.part_count(), pin.parts);
  EXPECT_EQ(plan.rebalance_moves, pin.rebalance_moves);
  EXPECT_EQ(plan_digest(plan), pin.digest)
      << std::hex << "digest 0x" << plan_digest(plan);
}

/// Every simulated cost of a partition phase, plus one digest of the
/// plan, the per-leaf segment counts and the tree's network stats.
struct PhasePin {
  double sim, read, histogram_reduce, plan, broadcast, write, send;
  std::uint64_t digest;
};

void expect_phase(const mp::PartitionPhaseResult& r, const PhasePin& pin) {
  const struct {
    const char* name;
    double got, want;
  } costs[] = {{"sim_seconds", r.sim_seconds, pin.sim},
               {"read_seconds", r.read_seconds, pin.read},
               {"histogram_reduce_seconds", r.histogram_reduce_seconds,
                pin.histogram_reduce},
               {"plan_seconds", r.plan_seconds, pin.plan},
               {"broadcast_seconds", r.broadcast_seconds, pin.broadcast},
               {"write_seconds", r.write_seconds, pin.write},
               {"send_seconds", r.send_seconds, pin.send}};
  for (const auto& c : costs) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(c.got),
              std::bit_cast<std::uint64_t>(c.want))
        << c.name << " = " << std::hexfloat << c.got;
  }
  Digest d;
  d.add(plan_digest(r.plan));
  for (const auto& counts : r.segment_counts) {
    d.add(counts.owned);
    d.add(counts.shadow);
  }
  const mrscan::mrnet::NetworkStats& net = r.net_stats;
  for (const std::uint64_t w :
       {net.packets_up, net.packets_down, net.bytes_up, net.bytes_down,
        std::uint64_t{net.max_packet_bytes}}) {
    d.add(w);
  }
  d.add(net.last_op_seconds);
  d.add(net.total_seconds);
  EXPECT_EQ(d.value(), pin.digest) << std::hex << "digest 0x" << d.value();
}

}  // namespace

TEST(PartitionPin, SdssPlan256Parts) {
  mrscan::data::SdssConfig sdss;
  sdss.num_points = 200'000;
  TestData s(mrscan::data::generate_sdss(sdss), 0.00015);
  expect_plan(mp::plan_partitions(s.hist, s.geometry,
                                  mp::PartitionerConfig{256, 5, true, 1.075}),
              {256, 1160, 0x442433ae25d26d1d});
}

TEST(PartitionPin, TwitterPlans16And1024Parts) {
  TestData s(twitter_points(200'000), 0.1);
  expect_plan(mp::plan_partitions(s.hist, s.geometry,
                                  mp::PartitionerConfig{16, 4, true, 1.075}),
              {16, 3521, 0xeaa69576c54120b2});
  expect_plan(
      mp::plan_partitions(s.hist, s.geometry,
                          mp::PartitionerConfig{1024, 4, true, 1.075}),
      {1024, 26277, 0x2f721b2e9610d3bf});
}

TEST(PartitionPin, RefinedGridPlan) {
  // cell_refine 2: the histogram is built at Eps/2 = 0.05.
  TestData s(twitter_points(100'000, 3), 0.05);
  expect_plan(
      mp::plan_partitions(s.hist, s.geometry,
                          mp::PartitionerConfig{16, 4, true, 1.075, true, 2}),
      {16, 127, 0x7cb2710287f8fcb8});
}

TEST(PartitionPin, ShadowRegionsOffPlan) {
  TestData s(twitter_points(100'000, 5), 0.1);
  expect_plan(
      mp::plan_partitions(s.hist, s.geometry,
                          mp::PartitionerConfig{16, 4, true, 1.075, false}),
      {16, 312, 0x19b44dba6bd1b91a});
}

namespace {

/// One grid line through the origin, negative keys included: a column
/// (fixed ix) or a row (fixed iy), with uneven counts, one-cell gaps and
/// one gap wider than the shadow ring.
mi::CellHistogram line_histogram(bool column) {
  std::vector<mi::CellHistogram::Entry> entries;
  for (std::int32_t i = -400; i < 400; ++i) {
    if ((i + 400) % 13 == 5 || (i >= 100 && i < 106)) continue;
    const mg::CellKey key = column ? mg::CellKey{-3, i} : mg::CellKey{i, -3};
    entries.push_back({mg::cell_code(key),
                       1 + static_cast<std::uint64_t>((i + 400) * 7919 % 37)});
  }
  return mi::CellHistogram(std::move(entries));
}

}  // namespace

TEST(PartitionPin, NegativeAndDegenerateGrids) {
  // The pins above anchor the grid at the data's lower-left corner, where
  // code order is grid order. Here the keys go negative, and a single
  // column or row leaves one cell per column or one column in all.
  {
    SCOPED_TRACE("twitter, centred origin");
    TestData s(twitter_points(30'000, 7), 0.1, Origin::kCentre);
    expect_plan(mp::plan_partitions(s.hist, s.geometry,
                                    mp::PartitionerConfig{16, 4, true, 1.075}),
                {16, 53590, 0xdba7ccc45d0b971c});
    expect_plan(
        mp::plan_partitions(s.hist, s.geometry,
                            mp::PartitionerConfig{16, 4, true, 1.075, false}),
        {16, 1748, 0x7ea8fa415d661d15});
  }
  {
    SCOPED_TRACE("twitter, centred origin, cell_refine 3");
    TestData s(twitter_points(30'000, 7), 0.1 / 3, Origin::kCentre);
    expect_plan(
        mp::plan_partitions(s.hist, s.geometry,
                            mp::PartitionerConfig{16, 4, true, 1.075, true, 3}),
        {16, 90147, 0xc7b7c4f4481512b3});
  }
  {
    SCOPED_TRACE("single column, then single row");
    const mg::GridGeometry unit{0, 0, 1.0};
    const mp::PartitionerConfig config{16, 4, true, 1.075};
    expect_plan(mp::plan_partitions(line_histogram(true), unit, config),
                {16, 13, 0xc2f367af65465d88});
    expect_plan(mp::plan_partitions(line_histogram(false), unit, config),
                {16, 13, 0x267eebdff4a570bc});
  }
  {
    SCOPED_TRACE("sdss, centred origin");
    mrscan::data::SdssConfig sdss;
    sdss.num_points = 100'000;
    TestData s(mrscan::data::generate_sdss(sdss), 0.00015, Origin::kCentre);
    expect_plan(mp::plan_partitions(s.hist, s.geometry,
                                    mp::PartitionerConfig{256, 5, true, 1.075}),
                {256, 3006, 0xbc8006e91d44f60b});
  }
}

TEST(PartitionPin, ModelModeTable1RowBothTransports) {
  // Table 1's 25.6M-point row: 32 leaves, 8 partition nodes.
  mrscan::data::TwitterConfig tw;
  tw.num_points = 25'600'000;
  const auto hist = mrscan::data::twitter_histogram(tw, 0.1, 50'000);
  const mg::GridGeometry geometry{tw.window.min_x, tw.window.min_y, 0.1};
  mp::DistributedPartitionerConfig config;
  config.eps = 0.1;
  config.partition_nodes = 8;
  config.planner = mp::PartitionerConfig{32, 40, true, 1.075};
  const mrscan::sim::TitanParams titan;
  expect_phase(mp::run_distributed_partitioner_model(
                   hist, geometry, tw.num_points, config, titan),
               {0x1.9df3a2c517269p+4, 0x1.e09e60f04c757p+2,
                0x1.9a8aec68da9b2p-13, 0x1.0b630a91537ap-8,
                0x1.2ea1b19ea6a75p-13, 0x1.25b9efc20bf04p+4, 0.0,
                0x27de9c4436f83ab4});
  config.transport = mp::Transport::kDirect;
  expect_phase(mp::run_distributed_partitioner_model(
                   hist, geometry, tw.num_points, config, titan),
               {0x1.e2f4dfb9f872ep+2, 0x1.e09e60f04c757p+2,
                0x1.9a8aec68da9b2p-13, 0x1.0b630a91537ap-8,
                0x1.2ea1b19ea6a75p-13, 0.0, 0x1.0709d6e5ccc56p-5,
                0x27de9c4436f83ab4});
}

TEST(PartitionPin, RealModeResidentAndSpooled) {
  const auto points = twitter_points(20'000);
  mp::DistributedPartitionerConfig config;
  config.eps = 0.1;
  config.partition_nodes = 4;
  config.planner = mp::PartitionerConfig{8, 4, true, 1.075};
  const mrscan::sim::TitanParams titan;
  // The timing model charges the same Lustre write whether the segments
  // stay resident or spool to per-leaf files.
  const PhasePin pin{0x1.fe8525045d48cp-5,  0x1.9f0fb38a94d24p-7,
                     0x1.de2358c2056afp-14, 0x1.d462c343b70efp-10,
                     0x1.31e84943da8f2p-14, 0x1.86961c36976bcp-5,
                     0.0,                   0x4beeacc03993d81e};
  mrscan::util::ThreadPool pool(1);
  const auto resident =
      mp::run_distributed_partitioner(points, config, titan, pool);
  expect_phase(resident, pin);
  EXPECT_EQ(resident.segment_counts.size(), resident.plan.part_count());
  ASSERT_TRUE(resident.grid.has_value());
  EXPECT_EQ(resident.grid->point_count(), points.size());

  const std::filesystem::path spool =
      std::filesystem::temp_directory_path() /
      ("mrscan_partition_pin_" + std::to_string(::getpid()));
  std::filesystem::create_directories(spool);
  config.spool_dir = spool;
  const auto spooled =
      mp::run_distributed_partitioner(points, config, titan, pool);
  std::filesystem::remove_all(spool);
  expect_phase(spooled, pin);
  EXPECT_EQ(spooled.segment_counts, resident.segment_counts);
  EXPECT_FALSE(spooled.grid.has_value());
}
