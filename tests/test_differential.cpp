// Differential battery: the full pipeline against the sequential DBSCAN
// oracle, across a seeded grid of tree shapes, parameters, and dataset
// shapes.
//
// Exact label equality with sequential DBSCAN is the wrong oracle: border
// points that sit within eps of two clusters' cores are assigned by visit
// order (§2.1), which legitimately differs between the implementations.
// Core-point assignment is order-independent, so the battery asserts
//   1. a bijection between the labelings restricted to the oracle's core
//      points (sweep::equivalent_partitions_where),
//   2. identical cluster counts (clusters are identified by their cores),
//   3. DBDC quality over all points >= 0.99 (border drift only).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <random>
#include <stdexcept>
#include <string>

#include "cluster_equiv.hpp"
#include "core/mrscan.hpp"
#include "io/checked_file.hpp"
#include "io/labeled_file.hpp"
#include "data/sdss.hpp"
#include "data/synthetic.hpp"
#include "data/twitter.hpp"
#include "dbscan/sequential.hpp"
#include "geometry/bbox.hpp"
#include "geometry/cell.hpp"
#include "gpu/dense_box.hpp"
#include "quality/dbdc.hpp"
#include "sweep/sweep.hpp"

namespace mc = mrscan::core;
namespace md = mrscan::dbscan;
namespace mg = mrscan::geom;

namespace {

/// The battery runs host-threaded by default (MRSCAN_HOST_THREADS
/// overrides; scripts/check.sh sets 4 under the tsan preset) so the
/// determinism contract — bit-identical output for any worker count — is
/// continuously enforced, not just in the dedicated sweep test.
std::size_t host_threads_from_env() {
  const char* v = std::getenv("MRSCAN_HOST_THREADS");
  if (v == nullptr || *v == '\0') return 2;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

mc::MrScanConfig make_config(double eps, std::size_t min_pts,
                             std::size_t leaves, std::size_t fanout) {
  mc::MrScanConfig config;
  config.params = {eps, min_pts};
  config.leaves = leaves;
  config.fanout = fanout;
  config.partition_nodes = 2;
  config.host_threads = host_threads_from_env();
  return config;
}

/// Read a streamed labeled binary output back as the resident
/// result.output record vector.
std::vector<mrscan::sweep::LabeledPoint> read_labeled(
    const std::filesystem::path& path) {
  mrscan::io::LabeledFileReader reader(path);
  std::vector<mrscan::sweep::LabeledPoint> records;
  records.reserve(reader.records());
  mg::Point point;
  std::int64_t cluster = 0;
  while (reader.next(point, cluster)) {
    records.push_back(mrscan::sweep::LabeledPoint{point, cluster});
  }
  return records;
}

void expect_matches_oracle(const mg::PointSet& points,
                           const mc::MrScanConfig& config,
                           const std::string& context) {
  const auto result = mc::MrScan(config).run(points);
  const auto got = result.labels_for(points);
  const auto ref = md::dbscan_sequential(points, config.params);

  EXPECT_EQ(result.cluster_count, ref.cluster_count()) << context;
  EXPECT_TRUE(
      mrscan::sweep::equivalent_partitions_where(got, ref.cluster, ref.core))
      << context << ": core-point partition differs from the oracle";
  EXPECT_GT(mrscan::quality::dbdc_quality(ref.cluster, got), 0.99)
      << context;
}

}  // namespace

TEST(Differential, TreeShapeGridOnTwitterData) {
  mrscan::data::TwitterConfig tw;
  tw.num_points = 10000;
  tw.seed = 1;
  const auto points = mrscan::data::generate_twitter(tw);
  for (const std::size_t leaves : {1UL, 4UL, 9UL}) {
    for (const std::size_t fanout : {2UL, 256UL}) {
      expect_matches_oracle(points, make_config(0.1, 40, leaves, fanout),
                            "leaves " + std::to_string(leaves) + " fanout " +
                                std::to_string(fanout));
    }
  }
}

TEST(Differential, ParameterGridOnTwitterData) {
  mrscan::data::TwitterConfig tw;
  tw.num_points = 9000;
  tw.seed = 5;
  const auto points = mrscan::data::generate_twitter(tw);
  for (const double eps : {0.05, 0.1, 0.2}) {
    for (const std::size_t min_pts : {10UL, 40UL}) {
      expect_matches_oracle(points, make_config(eps, min_pts, 6, 4),
                            "eps " + std::to_string(eps) + " min_pts " +
                                std::to_string(min_pts));
    }
  }
}

TEST(Differential, SdssSkySurveyShape) {
  mrscan::data::SdssConfig sdss;
  sdss.num_points = 10000;
  const auto points = mrscan::data::generate_sdss(sdss);
  for (const std::size_t leaves : {2UL, 6UL}) {
    expect_matches_oracle(points, make_config(0.00015, 5, leaves, 4),
                          "sdss leaves " + std::to_string(leaves));
  }
}

TEST(Differential, GaussianBlobsWithUniformNoise) {
  const std::vector<mrscan::data::Blob> blobs{{0.0, 0.0, 0.3, 900},
                                              {8.0, 8.0, 0.4, 700},
                                              {0.0, 8.0, 0.2, 500},
                                              {8.0, 0.0, 0.3, 600}};
  const auto points = mrscan::data::gaussian_blobs(
      blobs, 400, mg::BBox{-4.0, -4.0, 12.0, 12.0}, 17);
  for (const std::size_t leaves : {3UL, 8UL}) {
    expect_matches_oracle(points, make_config(0.3, 5, leaves, 3),
                          "blobs leaves " + std::to_string(leaves));
  }
}

TEST(Differential, NonConvexAnnuliOnlyDensitySeparates) {
  // Two concentric rings: centroid methods cannot split them; DBSCAN must
  // find exactly two clusters, and so must the tree pipeline.
  auto points = mrscan::data::annulus(2500, 0.0, 0.0, 1.8, 2.2, 23);
  const auto inner = mrscan::data::annulus(2000, 0.0, 0.0, 0.6, 0.9, 29,
                                           /*first_id=*/100000);
  points.insert(points.end(), inner.begin(), inner.end());
  const auto config = make_config(0.25, 5, 5, 4);
  expect_matches_oracle(points, config, "annuli");
  const auto result = mc::MrScan(config).run(points);
  EXPECT_EQ(result.cluster_count, 2u);
}

TEST(Differential, DenseBoxOnAndOffAgreeWithTheOracle) {
  mrscan::data::TwitterConfig tw;
  tw.num_points = 9000;
  tw.seed = 3;
  const auto points = mrscan::data::generate_twitter(tw);
  for (const bool dense_box : {true, false}) {
    auto config = make_config(0.1, 40, 5, 4);
    config.gpu.dense_box = dense_box;
    expect_matches_oracle(points, config,
                          dense_box ? "dense-box on" : "dense-box off");
  }
}

// A dense box counts every pair of its points within Eps. Its side bound,
// dense_box_side(eps), rounds above Eps/sqrt(2) at these Eps (both fixture
// values among them), so the opposite corners of a square with that side
// fail the distance test that every kernel and the oracle apply. With r
// points on each corner, a point has 3r neighbours, itself included, so
// at MinPts in (3r, 4r] all of them are noise.
TEST(Differential, DenseBoxCornersBeyondEpsStayNoise) {
  struct Case {
    std::size_t per_corner;
    std::size_t min_pts;
    std::size_t leaves;
    std::size_t far_points;  // isolated points, to spread the leaves
  };
  const Case cases[] = {{1, 4, 1, 0}, {20, 61, 1, 0}, {20, 61, 4, 0},
                        {20, 61, 4, 20}};
  for (const double eps : {1.0, 0.1, 0.00015}) {
    const double side = mrscan::gpu::dense_box_side(eps);
    ASSERT_GT(side * side + side * side, eps * eps)
        << "at Eps " << eps << " the square's diagonal passes the test";
    for (const Case& c : cases) {
      mg::PointSet points;
      for (const auto& [x, y] : {std::pair{0.0, 0.0}, std::pair{side, 0.0},
                                 std::pair{0.0, side}, std::pair{side, side}}) {
        for (std::size_t i = 0; i < c.per_corner; ++i) {
          points.push_back({points.size(), x, y, 1.0f});
        }
      }
      for (std::size_t i = 0; i < c.far_points; ++i) {
        const double at = 5.0 * eps * static_cast<double>(i + 1);
        points.push_back({points.size(), at, -at, 1.0f});
      }
      const std::string context =
          "Eps " + std::to_string(eps) + ", " +
          std::to_string(c.per_corner) + " per corner, MinPts " +
          std::to_string(c.min_pts) + ", " + std::to_string(c.leaves) +
          " leaves, " + std::to_string(c.far_points) + " far points";
      const auto oracle =
          md::dbscan_sequential(points, md::DbscanParams{eps, c.min_pts});
      for (const md::ClusterId label : oracle.cluster) {
        ASSERT_EQ(label, md::kNoise) << context << ": oracle";
      }
      for (const auto algo : {mrscan::cluster::ClusterAlgo::kTwoPass,
                              mrscan::cluster::ClusterAlgo::kCellGraph}) {
        auto config = make_config(eps, c.min_pts, c.leaves, 4);
        config.cluster_algo = algo;
        ASSERT_TRUE(config.gpu.dense_box);
        const auto result = mc::MrScan(config).run(points);
        const std::string where =
            context + ", " + std::string(mrscan::cluster::to_string(algo));
        EXPECT_EQ(result.cluster_count, 0u) << where;
        EXPECT_TRUE(result.output.empty()) << where;
        if (c.far_points > 0) {
          EXPECT_GT(result.leaves_used, 1u) << where;
        }
      }
    }
  }
}

namespace {

/// Exact DBSCAN by brute force, with the distance test every kernel
/// applies: `core[i]` when point i has at least MinPts points, itself
/// included, within Eps; `component[i]` is the smallest index of the
/// core points Eps-connected to core point i; `neighbours[i]` lists them
/// all (i itself included).
struct BruteForce {
  std::vector<std::uint8_t> core;
  std::vector<std::size_t> component;
  std::vector<std::vector<std::size_t>> neighbours;
  std::size_t components = 0;
};

BruteForce brute_force_dbscan(const mg::PointSet& points,
                              const md::DbscanParams& params) {
  const std::size_t n = points.size();
  const double eps2 = params.eps * params.eps;
  BruteForce bf;
  bf.neighbours.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = points[i].x - points[j].x;
      const double dy = points[i].y - points[j].y;
      if (dx * dx + dy * dy <= eps2) bf.neighbours[i].push_back(j);
    }
  }
  bf.core.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    bf.core[i] = bf.neighbours[i].size() >= params.min_pts ? 1 : 0;
  }
  // Label each core component by its smallest index, one flood at a time.
  bf.component.assign(n, n);
  for (std::size_t seed = 0; seed < n; ++seed) {
    if (!bf.core[seed] || bf.component[seed] != n) continue;
    ++bf.components;
    std::vector<std::size_t> stack{seed};
    bf.component[seed] = seed;
    while (!stack.empty()) {
      const std::size_t i = stack.back();
      stack.pop_back();
      for (const std::size_t j : bf.neighbours[i]) {
        if (!bf.core[j] || bf.component[j] != n) continue;
        bf.component[j] = seed;
        stack.push_back(j);
      }
    }
  }
  return bf;
}

/// One seeded input for the brute-force fuzz and the MinPts it runs at.
struct AdversarialInput {
  std::string name;
  double eps = 1.0;
  std::size_t min_pts = 1;
  mg::PointSet points;
};

/// The inputs that stress the pipeline's exact-distance contract: Eps
/// lattices, whose neighbour distances round either side of Eps;
/// lattices spaced one dense-box side apart; half-Eps lattices across the
/// y = 0 line, where a cell code's int32 iy wraps to the top of the code
/// range and y is +0 or -0 at random; uniform points; clumps; and the
/// corners of a dense-box-sized square, r points each, at MinPts in
/// (3r, 4r], where the opposite corners' distance rounds past Eps.
std::vector<AdversarialInput> adversarial_inputs(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  std::vector<AdversarialInput> inputs;
  for (const double eps : {1.0, 0.1, 0.00015}) {
    const double side = mrscan::gpu::dense_box_side(eps);
    const auto add = [&](std::string name, std::size_t min_pts) {
      inputs.push_back({std::move(name) + " at Eps " + std::to_string(eps),
                        eps, min_pts, {}});
      return &inputs.back().points;
    };
    const auto push = [](mg::PointSet* pts, double x, double y) {
      pts->push_back({pts->size(), x, y, 1.0f});
    };

    for (const auto& [name, spacing] :
         {std::pair{"Eps lattice", eps}, std::pair{"box lattice", side}}) {
      const std::size_t k = pick(4, 7);
      mg::PointSet* pts = add(name, pick(2, 6));
      const double x0 = spacing * static_cast<double>(pick(0, 3));
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
          push(pts, x0 + spacing * static_cast<double>(i),
               spacing * static_cast<double>(j));
        }
      }
    }

    {
      const auto k = static_cast<std::int64_t>(pick(3, 5));
      mg::PointSet* pts = add("half-Eps lattice across y = 0", pick(3, 10));
      for (std::int64_t i = 0; i < 2 * k; ++i) {
        for (std::int64_t j = -k; j <= k; ++j) {
          const double y = j == 0 ? (pick(0, 1) != 0 ? -0.0 : 0.0)
                                  : 0.5 * eps * static_cast<double>(j);
          push(pts, 0.5 * eps * static_cast<double>(i), y);
        }
      }
    }

    {
      std::uniform_real_distribution<double> coord(0.0, 4.0 * eps);
      mg::PointSet* pts = add("uniform", pick(2, 6));
      for (std::size_t n = pick(40, 90); pts->size() < n;) {
        push(pts, coord(rng), coord(rng));
      }
    }

    {
      std::uniform_real_distribution<double> centre(0.0, 6.0 * eps);
      std::normal_distribution<double> spread(0.0, eps / 3.0);
      mg::PointSet* pts = add("clumps", pick(3, 8));
      for (std::size_t c = pick(2, 4); c > 0; --c) {
        const double cx = centre(rng);
        const double cy = centre(rng);
        for (std::size_t n = pick(8, 20); n > 0; --n) {
          push(pts, cx + spread(rng), cy + spread(rng));
        }
      }
    }

    {
      const std::size_t r = pick(1, 5);
      mg::PointSet* pts = add("box corners", pick(3 * r + 1, 4 * r));
      for (const auto& [x, y] : {std::pair{0.0, 0.0}, std::pair{side, 0.0},
                                 std::pair{0.0, side}, std::pair{side, side}}) {
        for (std::size_t i = 0; i < r; ++i) push(pts, x, y);
      }
    }
  }
  return inputs;
}

}  // namespace

// Seeded adversarial geometry through every leaf count, cluster
// algorithm and grid refinement, against exact DBSCAN by brute force. The core components and the noise set must match exactly,
// and a border point must carry the cluster of one of its core
// neighbours (which one depends on visit order, §2.1).
TEST(Differential, AdversarialGeometryMatchesBruteForce) {
  using mrscan::cluster::ClusterAlgo;
  struct Algo {
    const char* name;
    ClusterAlgo algo;
    bool dense_box;
  };
  const Algo algos[] = {{"two-pass, dense boxes", ClusterAlgo::kTwoPass, true},
                        {"two-pass", ClusterAlgo::kTwoPass, false},
                        {"cell-graph", ClusterAlgo::kCellGraph, true}};
  std::size_t runs = 0;
  for (const AdversarialInput& input : adversarial_inputs(9)) {
    const mg::PointSet& points = input.points;
    const BruteForce bf = brute_force_dbscan(
        points, md::DbscanParams{input.eps, input.min_pts});
    for (const std::size_t leaves : {1UL, 2UL, 4UL, 8UL}) {
      for (const Algo& algo : algos) {
        for (const std::size_t refine : {1UL, 2UL}) {
          auto config = make_config(input.eps, input.min_pts, leaves, 4);
          config.cluster_algo = algo.algo;
          config.gpu.dense_box = algo.dense_box;
          config.cell_refine = refine;
          const auto result = mc::MrScan(config).run(points);
          const auto got = result.labels_for(points);
          ++runs;
          const std::string context =
              input.name + ", MinPts " + std::to_string(input.min_pts) +
              ", " + std::to_string(leaves) + " leaves, " + algo.name +
              ", cell_refine " + std::to_string(refine);

          EXPECT_EQ(result.cluster_count, bf.components) << context;
          // Core components: one cluster per component, and no two
          // components share one.
          std::map<std::size_t, md::ClusterId> cluster_of;
          std::map<md::ClusterId, std::size_t> component_of;
          for (std::size_t i = 0; i < points.size(); ++i) {
            if (bf.core[i] == 0) continue;
            ASSERT_NE(got[i], md::kNoise) << context << ": core point " << i;
            ASSERT_EQ(cluster_of.emplace(bf.component[i], got[i]).first->second,
                      got[i])
                << context << ": component split";
            ASSERT_EQ(component_of.emplace(got[i], bf.component[i])
                          .first->second,
                      bf.component[i])
                << context << ": components merged";
          }
          // Noise exactly, and each border point in a neighbour's cluster.
          for (std::size_t i = 0; i < points.size(); ++i) {
            if (bf.core[i] != 0) continue;
            bool in_neighbour_cluster = false;
            bool has_core_neighbour = false;
            for (const std::size_t j : bf.neighbours[i]) {
              if (bf.core[j] == 0) continue;
              has_core_neighbour = true;
              in_neighbour_cluster |= got[i] == got[j];
            }
            if (!has_core_neighbour) {
              ASSERT_EQ(got[i], md::kNoise) << context << ": noise point " << i;
            } else {
              ASSERT_TRUE(in_neighbour_cluster)
                  << context << ": border point " << i;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 18u * 24u);
}

TEST(Differential, HostThreadSweepYieldsBitIdenticalOutput) {
  mrscan::data::TwitterConfig tw;
  tw.num_points = 10000;
  tw.seed = 7;
  const auto points = mrscan::data::generate_twitter(tw);

  auto base_cfg = make_config(0.1, 40, 8, 4);
  base_cfg.host_threads = 1;
  const auto baseline = mc::MrScan(base_cfg).run(points);
  ASSERT_GT(baseline.cluster_count, 0u);

  // 0 = hardware concurrency: the sweep covers sequential, a fixed worker
  // count, and whatever this machine has.
  for (const std::size_t threads : {2UL, 0UL}) {
    auto cfg = base_cfg;
    cfg.host_threads = threads;
    const auto result = mc::MrScan(cfg).run(points);
    const std::string context =
        "host_threads " + std::to_string(threads);
    EXPECT_TRUE(result.output == baseline.output)
        << context << ": output records differ from host_threads=1";
    EXPECT_EQ(result.cluster_count, baseline.cluster_count) << context;
    EXPECT_EQ(result.merges_detected, baseline.merges_detected) << context;
    // Simulated times are part of the contract too: the virtual clock
    // must not depend on how many host workers computed the inputs.
    EXPECT_DOUBLE_EQ(result.gpu_dbscan_seconds, baseline.gpu_dbscan_seconds)
        << context;
    EXPECT_DOUBLE_EQ(result.sim.cluster_merge, baseline.sim.cluster_merge)
        << context;
    EXPECT_DOUBLE_EQ(result.sim.sweep, baseline.sim.sweep) << context;
  }
}

TEST(Differential, FaultMatrixUnderHostThreadsStaysBitIdentical) {
  mrscan::data::TwitterConfig tw;
  tw.num_points = 8000;
  tw.seed = 13;
  const auto points = mrscan::data::generate_twitter(tw);

  auto base_cfg = make_config(0.1, 20, 6, 4);
  base_cfg.host_threads = 1;
  const auto baseline = mc::MrScan(base_cfg).run(points);
  ASSERT_GE(baseline.leaves_used, 3u);

  // Leaf kills (before and during clustering) combined with drops and
  // reorders, clustered on 4 host workers: recovery re-clustering must
  // slot into the same leaf state the workers filled, bit-identically.
  auto cfg = base_cfg;
  cfg.host_threads = 4;
  cfg.fault_plan.seed = 0xfeedULL;
  cfg.fault_plan.kill(0, /*before_cluster=*/true)
      .kill(2, /*before_cluster=*/false)
      .drop(mrscan::fault::kAllNodes, 0)
      .reorder(mrscan::fault::kAllNodes, 2e-4);
  cfg.fault_plan.retry.leaf_timeout_s = 2.0;
  const auto faulty = mc::MrScan(cfg).run(points);

  EXPECT_EQ(faulty.merge_net.leaves_recovered, 2u);
  EXPECT_TRUE(faulty.output == baseline.output)
      << "faulty threaded run diverged from the sequential fault-free run";
  EXPECT_EQ(faulty.cluster_count, baseline.cluster_count);

  // The same plan out of core: recovery re-maps each dead leaf's segment
  // file and re-spills its labels, and the run must still stream the
  // fault-free records and charge exactly what the resident faulty run
  // charged.
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() /
      ("mrscan_fault_ooc_" + std::to_string(::getpid()));
  fs::remove_all(root);
  for (const std::size_t threads : {1UL, 4UL}) {
    auto ooc_cfg = cfg;
    ooc_cfg.host_threads = threads;
    ooc_cfg.ooc.enabled = true;
    ooc_cfg.ooc.dir = root / ("ht" + std::to_string(threads));
    ooc_cfg.ooc.working_set = 2;
    const auto streamed = mc::MrScan(ooc_cfg).run(points);
    const std::string context = "ooc host_threads " + std::to_string(threads);
    EXPECT_EQ(streamed.merge_net.leaves_recovered, 2u) << context;
    EXPECT_TRUE(read_labeled(streamed.output_path) == baseline.output)
        << context << ": streamed records differ from the fault-free run";
    EXPECT_EQ(streamed.sim.total(), faulty.sim.total()) << context;
    EXPECT_TRUE(streamed.leaf_stats == faulty.leaf_stats) << context;
  }
  fs::remove_all(root);
}

TEST(Differential, ClusterAlgoSweepAcrossDatasetsStaysBitIdentical) {
  // The cell-graph and two-pass paths must produce the same clustering on
  // every dataset shape, with dense-box on and off (two-pass only; the
  // cell-graph cell-core rule subsumes it), at 1, 2 and 4 host workers —
  // all bit-identical to the sequential-host two-pass run, which itself
  // is oracle-checked. Cluster labels are additionally compared with the
  // canonical-relabel helper, so a cluster-id permutation would still
  // pass while any partition change fails.
  struct Dataset {
    std::string name;
    mg::PointSet points;
    double eps;
    std::size_t min_pts;
  };
  std::vector<Dataset> datasets;
  {
    mrscan::data::TwitterConfig tw;
    tw.num_points = 6000;
    tw.seed = 41;
    datasets.push_back({"twitter", mrscan::data::generate_twitter(tw),
                        0.1, 40});
    mrscan::data::SdssConfig sdss;
    sdss.num_points = 6000;
    datasets.push_back({"sdss", mrscan::data::generate_sdss(sdss),
                        0.00015, 5});
    const std::vector<mrscan::data::Blob> blobs{{0.0, 0.0, 0.3, 900},
                                                {8.0, 8.0, 0.4, 700},
                                                {0.0, 8.0, 0.2, 500}};
    datasets.push_back(
        {"blobs",
         mrscan::data::gaussian_blobs(
             blobs, 300, mg::BBox{-4.0, -4.0, 12.0, 12.0}, 43),
         0.3, 5});
    auto annuli = mrscan::data::annulus(1500, 0.0, 0.0, 1.8, 2.2, 47);
    const auto inner = mrscan::data::annulus(1200, 0.0, 0.0, 0.6, 0.9, 53,
                                             /*first_id=*/100000);
    annuli.insert(annuli.end(), inner.begin(), inner.end());
    datasets.push_back({"annuli", std::move(annuli), 0.25, 5});
    datasets.push_back(
        {"uniform",
         mrscan::data::uniform_points(
             2500, mg::BBox{0.0, 0.0, 100.0, 100.0}, 59),
         0.4, 8});
  }

  using mrscan::cluster::ClusterAlgo;
  for (const auto& ds : datasets) {
    auto base_cfg = make_config(ds.eps, ds.min_pts, 5, 4);
    base_cfg.host_threads = 1;
    base_cfg.cluster_algo = ClusterAlgo::kTwoPass;
    expect_matches_oracle(ds.points, base_cfg, ds.name + " baseline");
    const auto baseline = mc::MrScan(base_cfg).run(ds.points);
    const auto baseline_labels = baseline.labels_for(ds.points);

    const struct {
      ClusterAlgo algo;
      bool dense_box;
    } variants[] = {{ClusterAlgo::kTwoPass, false},
                    {ClusterAlgo::kCellGraph, true},
                    {ClusterAlgo::kCellGraph, false}};
    for (const auto& v : variants) {
      for (const std::size_t threads : {1UL, 2UL, 4UL}) {
        auto cfg = base_cfg;
        cfg.cluster_algo = v.algo;
        cfg.gpu.dense_box = v.dense_box;
        cfg.host_threads = threads;
        const auto result = mc::MrScan(cfg).run(ds.points);
        const std::string context =
            ds.name + " algo " +
            std::string(mrscan::cluster::to_string(v.algo)) +
            " dense_box " + (v.dense_box ? "on" : "off") + " threads " +
            std::to_string(threads);
        EXPECT_TRUE(result.output == baseline.output)
            << context << ": output records differ";
        EXPECT_EQ(result.cluster_count, baseline.cluster_count) << context;
        EXPECT_TRUE(mrscan::test::same_clustering(
            result.labels_for(ds.points), baseline_labels))
            << context << ": clustering differs up to relabeling";
      }
    }
  }
}

TEST(Differential, IndexBackendSweepStaysBitIdentical) {
  // DESIGN §13's backend-independence contract: the fused-traversal BVH
  // and the KD-tree oracle must produce bit-identical output records on
  // both cluster formulations at 1, 2 and 4 host workers. Neighbour visit
  // order differs between the backends (KD-tree DFS vs BVH Morton
  // preorder), so this passing is evidence the label rules really are
  // order-independent. Simulated times are deliberately NOT compared
  // across backends — the BVH charges per traversal step, so its virtual
  // clock legitimately differs; only the clustering must not.
  struct Dataset {
    std::string name;
    mg::PointSet points;
    double eps;
    std::size_t min_pts;
  };
  std::vector<Dataset> datasets;
  {
    mrscan::data::TwitterConfig tw;
    tw.num_points = 6000;
    tw.seed = 41;
    datasets.push_back({"twitter", mrscan::data::generate_twitter(tw),
                        0.1, 40});
    const std::vector<mrscan::data::Blob> blobs{{0.0, 0.0, 0.3, 900},
                                                {8.0, 8.0, 0.4, 700},
                                                {0.0, 8.0, 0.2, 500}};
    datasets.push_back(
        {"blobs",
         mrscan::data::gaussian_blobs(
             blobs, 300, mg::BBox{-4.0, -4.0, 12.0, 12.0}, 43),
         0.3, 5});
  }

  using mrscan::cluster::ClusterAlgo;
  using mrscan::index::Backend;
  for (const auto& ds : datasets) {
    auto base_cfg = make_config(ds.eps, ds.min_pts, 5, 4);
    base_cfg.host_threads = 1;
    base_cfg.cluster_algo = ClusterAlgo::kTwoPass;
    base_cfg.index_backend = Backend::kKdTree;
    expect_matches_oracle(ds.points, base_cfg, ds.name + " baseline");
    const auto baseline = mc::MrScan(base_cfg).run(ds.points);
    const auto baseline_labels = baseline.labels_for(ds.points);
    ASSERT_GT(baseline.cluster_count, 0u) << ds.name;

    for (const Backend backend : {Backend::kKdTree, Backend::kBvh}) {
      for (const ClusterAlgo algo :
           {ClusterAlgo::kTwoPass, ClusterAlgo::kCellGraph}) {
        for (const std::size_t threads : {1UL, 2UL, 4UL}) {
          auto cfg = base_cfg;
          cfg.index_backend = backend;
          cfg.cluster_algo = algo;
          cfg.host_threads = threads;
          const auto result = mc::MrScan(cfg).run(ds.points);
          const std::string context =
              ds.name + " backend " +
              std::string(mrscan::index::to_string(backend)) + " algo " +
              std::string(mrscan::cluster::to_string(algo)) + " threads " +
              std::to_string(threads);
          EXPECT_TRUE(result.output == baseline.output)
              << context << ": output records differ";
          EXPECT_EQ(result.cluster_count, baseline.cluster_count) << context;
          EXPECT_TRUE(mrscan::test::same_clustering(
              result.labels_for(ds.points), baseline_labels))
              << context << ": clustering differs up to relabeling";
        }
      }
    }

    // The BVH backend really ran its fused traversals: its runs report
    // node steps, the KD-tree runs report none.
    auto bvh_cfg = base_cfg;
    bvh_cfg.index_backend = Backend::kBvh;
    const auto bvh_run = mc::MrScan(bvh_cfg).run(ds.points);
    std::uint64_t steps = 0;
    for (const auto& stats : bvh_run.leaf_stats) {
      steps += stats.bvh_node_steps;
    }
    EXPECT_GT(steps, 0u) << ds.name << ": BVH run charged no node steps";
    std::uint64_t kd_steps = 0;
    for (const auto& stats : baseline.leaf_stats) {
      kd_steps += stats.bvh_node_steps;
    }
    EXPECT_EQ(kd_steps, 0u) << ds.name;
  }
}

TEST(Differential, FaultMatrixCoversTheCellGraphPath) {
  // The PR-2 fault matrix re-run on the cell-graph path: leaf kills,
  // drops and reorders at 4 host workers must recover to the exact
  // labeling of the fault-free sequential two-pass run.
  mrscan::data::TwitterConfig tw;
  tw.num_points = 8000;
  tw.seed = 13;
  const auto points = mrscan::data::generate_twitter(tw);

  auto base_cfg = make_config(0.1, 20, 6, 4);
  base_cfg.host_threads = 1;
  const auto baseline = mc::MrScan(base_cfg).run(points);
  ASSERT_GE(baseline.leaves_used, 3u);

  auto cfg = base_cfg;
  cfg.cluster_algo = mrscan::cluster::ClusterAlgo::kCellGraph;
  cfg.host_threads = 4;
  cfg.fault_plan.seed = 0xfeedULL;
  cfg.fault_plan.kill(0, /*before_cluster=*/true)
      .kill(2, /*before_cluster=*/false)
      .drop(mrscan::fault::kAllNodes, 0)
      .reorder(mrscan::fault::kAllNodes, 2e-4);
  cfg.fault_plan.retry.leaf_timeout_s = 2.0;
  const auto faulty = mc::MrScan(cfg).run(points);

  EXPECT_EQ(faulty.merge_net.leaves_recovered, 2u);
  EXPECT_TRUE(faulty.output == baseline.output)
      << "faulty cell-graph run diverged from the fault-free two-pass run";
  EXPECT_EQ(faulty.cluster_count, baseline.cluster_count);
  EXPECT_TRUE(mrscan::test::same_clustering(faulty.labels_for(points),
                                            baseline.labels_for(points)));
}

TEST(Differential, OutOfCoreRunIsByteIdenticalToResident) {
  // DESIGN §15's headline contract: streaming leaves through a bounded
  // working set changes peak memory only — the streamed output records,
  // counters, and every simulated second match the resident run exactly,
  // at any host worker count, and across a kill/resume cycle.
  namespace fs = std::filesystem;
  mrscan::data::TwitterConfig tw;
  tw.num_points = 8000;
  tw.seed = 19;
  const auto points = mrscan::data::generate_twitter(tw);

  auto base_cfg = make_config(0.1, 20, 24, 4);
  base_cfg.host_threads = 1;
  const auto baseline = mc::MrScan(base_cfg).run(points);
  ASSERT_GT(baseline.cluster_count, 0u);
  ASSERT_GT(baseline.leaves_used, 8u);
  ASSERT_NE(baseline.leaves_used % 5, 0u);

  const fs::path root =
      fs::temp_directory_path() /
      ("mrscan_ooc_diff_" + std::to_string(::getpid()));
  fs::remove_all(root);

  // The sweep labels working-set windows of leaves: one leaf a window,
  // whole windows (3), a partial last window (5), and one window larger
  // than the leaf count.
  for (const std::size_t threads : {1UL, 4UL}) {
    for (const std::size_t working_set : {std::size_t{1}, std::size_t{3},
                                          std::size_t{5},
                                          baseline.leaves_used + 1}) {
      auto cfg = base_cfg;
      cfg.host_threads = threads;
      cfg.ooc.enabled = true;
      cfg.ooc.dir = root / ("ht" + std::to_string(threads) + "_ws" +
                            std::to_string(working_set));
      cfg.ooc.working_set = working_set;
      const auto result = mc::MrScan(cfg).run(points);
      const std::string context = "ooc host_threads " +
                                  std::to_string(threads) + " working_set " +
                                  std::to_string(working_set);

      EXPECT_TRUE(result.output.empty()) << context;
      EXPECT_EQ(result.output_records, baseline.output.size()) << context;
      EXPECT_TRUE(read_labeled(result.output_path) == baseline.output)
          << context << ": streamed records differ from the resident run";
      EXPECT_EQ(result.cluster_count, baseline.cluster_count) << context;
      EXPECT_EQ(result.leaves_used, baseline.leaves_used) << context;
      EXPECT_EQ(result.merges_detected, baseline.merges_detected) << context;
      EXPECT_DOUBLE_EQ(result.gpu_dbscan_seconds, baseline.gpu_dbscan_seconds)
          << context;
      EXPECT_DOUBLE_EQ(result.sim.cluster_merge, baseline.sim.cluster_merge)
          << context;
      EXPECT_DOUBLE_EQ(result.sim.sweep, baseline.sim.sweep) << context;
    }
  }

  // Kill/resume: abort right after a checkpoint, then resume on a
  // different worker count — restored leaves plus freshly clustered ones
  // must still reproduce the resident output byte-for-byte, and every
  // restored leaf's stats must decode to exactly what it measured. The
  // cell-graph leg fills the cellgraph_* stats the two-pass leg leaves
  // at zero.
  using mrscan::cluster::ClusterAlgo;
  for (const ClusterAlgo algo :
       {ClusterAlgo::kTwoPass, ClusterAlgo::kCellGraph}) {
    auto algo_cfg = base_cfg;
    algo_cfg.cluster_algo = algo;
    const auto resident = algo == base_cfg.cluster_algo
                              ? baseline
                              : mc::MrScan(algo_cfg).run(points);
    const std::string tag(mrscan::cluster::to_string(algo));
    const std::string context = "resume cluster_algo " + tag;
    if (algo == ClusterAlgo::kCellGraph) {
      std::uint64_t cells = 0;
      for (const auto& stats : resident.leaf_stats) {
        cells += stats.cellgraph_cells;
      }
      ASSERT_GT(cells, 0u) << context;
    }

    auto kill_cfg = algo_cfg;
    kill_cfg.host_threads = 4;
    kill_cfg.ooc.enabled = true;
    kill_cfg.ooc.dir = root / ("killed" + tag);
    kill_cfg.ooc.working_set = 3;
    kill_cfg.ooc.abort_after_leaves = 7;
    EXPECT_THROW(mc::MrScan(kill_cfg).run(points), mc::OocAborted)
        << context;

    auto resume_cfg = kill_cfg;
    resume_cfg.ooc.abort_after_leaves = 0;
    resume_cfg.ooc.resume = true;
    const auto resumed = mc::MrScan(resume_cfg).run(points);
    EXPECT_GT(resumed.ooc_leaves_restored, 0u) << context;
    EXPECT_LT(resumed.ooc_leaves_restored, resident.leaves_used) << context;
    EXPECT_TRUE(read_labeled(resumed.output_path) == resident.output)
        << context << ": resumed run diverged from the resident run";
    EXPECT_EQ(resumed.cluster_count, resident.cluster_count) << context;
    EXPECT_EQ(resumed.merges_detected, resident.merges_detected) << context;
    EXPECT_DOUBLE_EQ(resumed.sim.cluster_merge, resident.sim.cluster_merge)
        << context;
    EXPECT_DOUBLE_EQ(resumed.sim.sweep, resident.sim.sweep) << context;
    EXPECT_DOUBLE_EQ(resumed.gpu_dbscan_seconds, resident.gpu_dbscan_seconds)
        << context;
    EXPECT_TRUE(resumed.leaf_stats == resident.leaf_stats) << context;
  }

  fs::remove_all(root);
}

TEST(Differential, ResidentMatchesOutOfCoreWithRepresentativesAndNoise) {
  // A resident leaf gathers its points from the partition grid, and the
  // sweep labels the leaves on the pool, each at the record count of the
  // leaves delivered before it; out of core the points come from segment
  // files and the records stream. Shadow representatives change what a
  // leaf holds, kept noise changes how many records it yields, and both
  // modes must still agree at any worker count.
  namespace fs = std::filesystem;
  mrscan::data::TwitterConfig tw;
  tw.num_points = 20'000;
  tw.seed = 23;
  const auto points = mrscan::data::generate_twitter(tw);
  const fs::path root = fs::temp_directory_path() /
                        ("mrscan_ooc_reps_" + std::to_string(::getpid()));
  fs::remove_all(root);
  for (const bool keep_noise : {false, true}) {
    for (const std::size_t refine : {1UL, 2UL}) {
      for (const std::size_t threads : {1UL, 4UL}) {
        const std::string tag = std::string(keep_noise ? "noise" : "clusters") +
                                "_refine" + std::to_string(refine) + "_ht" +
                                std::to_string(threads);
        SCOPED_TRACE(tag);
        auto cfg = make_config(0.1, 20, 8, 4);
        cfg.shadow_rep_threshold = 16;
        cfg.keep_noise = keep_noise;
        cfg.cell_refine = refine;
        cfg.host_threads = threads;
        const auto resident = mc::MrScan(cfg).run(points);
        cfg.ooc.enabled = true;
        cfg.ooc.dir = root / tag;
        cfg.ooc.working_set = 3;
        const auto ooc = mc::MrScan(cfg).run(points);

        ASSERT_GT(resident.cluster_count, 0u);
        if (keep_noise) {
          EXPECT_EQ(resident.output.size(), points.size());
        }
        EXPECT_TRUE(read_labeled(ooc.output_path) == resident.output)
            << "streamed records differ from the resident run";
        const auto& counts = resident.partition_phase.segment_counts;
        EXPECT_TRUE(counts == ooc.partition_phase.segment_counts);
        std::uint64_t shadow = 0;
        for (const auto& c : counts) shadow += c.shadow;
        const auto& plan = resident.partition_phase.plan;
        EXPECT_LT(shadow, plan.total_points_with_shadow() -
                              plan.total_owned_points())
            << "no shadow cell was dense enough for representatives";
        EXPECT_EQ(resident.sim.total(), ooc.sim.total());
      }
    }
  }
  fs::remove_all(root);
}

TEST(Differential, ResumeRewritesDeletedSegmentFiles) {
  // Segment files are scratch (DESIGN §15): a resume re-runs the
  // partition phase and rewrites every one before anything reads it, so
  // a kill that also loses all of them still resumes to the resident
  // bytes. Only the label spills and the manifest must survive.
  namespace fs = std::filesystem;
  mrscan::data::TwitterConfig tw;
  tw.num_points = 8000;
  tw.seed = 19;
  const auto points = mrscan::data::generate_twitter(tw);
  auto cfg = make_config(0.1, 20, 24, 4);
  const auto resident = mc::MrScan(cfg).run(points);

  const fs::path dir = fs::temp_directory_path() /
                       ("mrscan_ooc_noseg_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  cfg.ooc.enabled = true;
  cfg.ooc.dir = dir;
  cfg.ooc.working_set = 3;
  cfg.ooc.abort_after_leaves = 7;
  EXPECT_THROW(mc::MrScan(cfg).run(points), mc::OocAborted);
  std::size_t deleted = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".seg") continue;
    fs::remove(entry.path());
    ++deleted;
  }
  ASSERT_EQ(deleted, resident.leaves_used);

  cfg.ooc.abort_after_leaves = 0;
  cfg.ooc.resume = true;
  const auto resumed = mc::MrScan(cfg).run(points);
  EXPECT_GT(resumed.ooc_leaves_restored, 0u);
  EXPECT_TRUE(read_labeled(resumed.output_path) == resident.output);
  EXPECT_DOUBLE_EQ(resumed.sim.total(), resident.sim.total());
  fs::remove_all(dir);
}

TEST(Differential, ResumeReclustersALeafWhoseSpillChanged) {
  // Label spills are written without fsync, so a crash can leave one
  // with the right size and the wrong bytes. Its checkpoint entry's
  // digest must catch that: the leaf is clustered again, not restored.
  // Setting one clustered label to noise keeps the file's size, so a
  // size-only check would restore it and change the output.
  namespace fs = std::filesystem;
  mrscan::data::TwitterConfig tw;
  tw.num_points = 8000;
  tw.seed = 19;
  const auto points = mrscan::data::generate_twitter(tw);
  auto cfg = make_config(0.1, 20, 24, 4);
  const auto resident = mc::MrScan(cfg).run(points);

  const fs::path root = fs::temp_directory_path() /
                        ("mrscan_ooc_spill_" + std::to_string(::getpid()));
  fs::remove_all(root);
  cfg.ooc.enabled = true;
  cfg.ooc.dir = root / "altered";
  cfg.ooc.working_set = 3;
  cfg.ooc.abort_after_leaves = 7;
  EXPECT_THROW(mc::MrScan(cfg).run(points), mc::OocAborted);
  // The same aborted spool, left untouched, says what a resume restores.
  const fs::path untouched = root / "untouched";
  fs::copy(cfg.ooc.dir, untouched, fs::copy_options::recursive);

  bool altered = false;
  for (std::size_t leaf = 0; leaf < resident.leaves_used && !altered;
       ++leaf) {
    const fs::path spill =
        cfg.ooc.dir / ("labels_" + std::to_string(leaf) + ".lbl");
    if (!fs::exists(spill)) continue;
    std::vector<std::uint8_t> bytes = mrscan::io::read_file_bytes(spill);
    for (std::size_t at = 0; at + sizeof(md::ClusterId) <= bytes.size();
         at += sizeof(md::ClusterId)) {
      md::ClusterId label = 0;
      std::memcpy(&label, bytes.data() + at, sizeof(label));
      if (label < 0) continue;
      label = md::kNoise;
      std::memcpy(bytes.data() + at, &label, sizeof(label));
      mrscan::io::write_file(spill, bytes);
      altered = true;
      break;
    }
  }
  ASSERT_TRUE(altered) << "no spilled leaf holds a clustered label";

  cfg.ooc.abort_after_leaves = 0;
  cfg.ooc.resume = true;
  const auto resumed = mc::MrScan(cfg).run(points);
  auto untouched_cfg = cfg;
  untouched_cfg.ooc.dir = untouched;
  const auto reference = mc::MrScan(untouched_cfg).run(points);
  EXPECT_GT(resumed.ooc_leaves_restored, 0u);
  EXPECT_EQ(resumed.ooc_leaves_restored + 1, reference.ooc_leaves_restored);
  EXPECT_TRUE(read_labeled(resumed.output_path) == resident.output);
  EXPECT_TRUE(read_labeled(reference.output_path) == resident.output);
  EXPECT_DOUBLE_EQ(resumed.sim.total(), resident.sim.total());
  fs::remove_all(root);
}

TEST(Differential, ResumeRefusesACheckpointOfAnotherInputOrKernel) {
  // A checkpoint holds leaf results, so it is valid only for the input
  // and settings that wrote it. Moving one noise point onto a clustered
  // point of its own Eps cell keeps the input size, the plan and every
  // leaf's counts, yet changes the answer; flipping dense_box changes
  // what a restored leaf's stats and ready time hold. Resuming over
  // either must refuse the manifest instead of restoring stale leaves.
  namespace fs = std::filesystem;
  mrscan::data::TwitterConfig tw;
  tw.num_points = 8000;
  tw.seed = 19;
  const auto points = mrscan::data::generate_twitter(tw);
  auto base_cfg = make_config(0.1, 20, 24, 4);
  base_cfg.host_threads = 1;
  const auto baseline = mc::MrScan(base_cfg).run(points);

  // The first noise point strictly inside the bounding box (so the grid
  // origin stays put) that shares its cell with a clustered point.
  const auto labels = baseline.labels_for(points);
  const mg::BBox box = mg::bbox_of(points);
  const mg::GridGeometry grid{box.min_x, box.min_y, base_cfg.params.eps};
  auto moved = points;
  bool found = false;
  for (std::size_t i = 0; i < points.size() && !found; ++i) {
    const mg::Point& p = points[i];
    if (labels[i] != md::kNoise || p.x <= box.min_x || p.x >= box.max_x ||
        p.y <= box.min_y || p.y >= box.max_y) {
      continue;
    }
    for (std::size_t j = 0; j < points.size() && !found; ++j) {
      if (labels[j] == md::kNoise ||
          !(grid.cell_of(points[j]) == grid.cell_of(p))) {
        continue;
      }
      moved[i].x = points[j].x;
      moved[i].y = points[j].y;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  const auto fresh = mc::MrScan(base_cfg).run(moved);
  ASSERT_FALSE(fresh.output == baseline.output);
  ASSERT_EQ(fresh.leaves_used, baseline.leaves_used);
  for (std::size_t leaf = 0; leaf < fresh.leaves_used; ++leaf) {
    const auto& a = fresh.partition_phase.segment_counts[leaf];
    const auto& b = baseline.partition_phase.segment_counts[leaf];
    ASSERT_EQ(a.owned, b.owned) << "leaf " << leaf;
    ASSERT_EQ(a.shadow, b.shadow) << "leaf " << leaf;
  }

  const fs::path dir = fs::temp_directory_path() /
                       ("mrscan_ooc_refuse_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  auto ooc_cfg = base_cfg;
  ooc_cfg.ooc.enabled = true;
  ooc_cfg.ooc.dir = dir;
  ooc_cfg.ooc.working_set = 3;
  mc::MrScan(ooc_cfg).run(points);

  auto resume_cfg = ooc_cfg;
  resume_cfg.ooc.resume = true;
  EXPECT_THROW(mc::MrScan(resume_cfg).run(moved), std::runtime_error);
  auto dense_cfg = resume_cfg;
  dense_cfg.gpu.dense_box = !dense_cfg.gpu.dense_box;
  EXPECT_THROW(mc::MrScan(dense_cfg).run(points), std::runtime_error);

  // The run that wrote the checkpoint still resumes from all of it.
  const auto resumed = mc::MrScan(resume_cfg).run(points);
  EXPECT_EQ(resumed.ooc_leaves_restored, resumed.leaves_used);
  EXPECT_TRUE(read_labeled(resumed.output_path) == baseline.output);
  fs::remove_all(dir);
}

TEST(Differential, UniformNoiseOnlyYieldsNoClustersAnywhere) {
  const auto points = mrscan::data::uniform_points(
      3000, mg::BBox{0.0, 0.0, 100.0, 100.0}, 31);
  for (const std::size_t leaves : {1UL, 4UL}) {
    const auto config = make_config(0.4, 8, leaves, 4);
    const auto result = mc::MrScan(config).run(points);
    const auto ref = md::dbscan_sequential(points, config.params);
    EXPECT_EQ(result.cluster_count, ref.cluster_count())
        << "leaves " << leaves;
  }
}
