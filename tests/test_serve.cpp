// serve::ClusterService lifecycle: epoch edge cases (empty epoch,
// delete-only epoch emptying a core cell, mutations whose effect lands in
// a shadow ring of the dirty cell), fault-injected maintenance epochs,
// snapshot lifetimes, and the seeded streaming workload
// generator the service tests and bench share.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "cluster_equiv.hpp"
#include "core/mrscan.hpp"
#include "data/stream.hpp"
#include "obs/names.hpp"
#include "serve/script.hpp"
#include "serve/service.hpp"

namespace md = mrscan::data;
namespace mg = mrscan::geom;
namespace ms = mrscan::serve;
namespace names = mrscan::obs::names;

namespace {

ms::ServeConfig make_config(double eps, std::size_t min_pts) {
  ms::ServeConfig config;
  config.params = {eps, min_pts};
  return config;
}

mg::Point pt(mg::PointId id, double x, double y) {
  mg::Point p;
  p.id = id;
  p.x = x;
  p.y = y;
  p.weight = 1.0;
  return p;
}

/// Cold batch labels for the service's current live set, aligned with the
/// snapshot's ascending-id point order.
std::vector<mrscan::dbscan::ClusterId> batch_labels(
    const mg::PointSet& points, const mrscan::dbscan::DbscanParams& params) {
  mrscan::core::MrScanConfig config;
  config.params = params;
  config.leaves = 4;
  config.partition_nodes = 2;
  return mrscan::core::MrScan(config).run(points).labels_for(points);
}

void expect_matches_batch(const ms::ClusterService& service,
                          const std::string& context) {
  const auto snapshot = service.snapshot();
  const auto batch = batch_labels(snapshot->points, service.config().params);
  EXPECT_TRUE(mrscan::test::same_clustering(snapshot->labels, batch))
      << context;
}

}  // namespace

TEST(ServeLifecycle, EmptyEpochIsFreeAndChangesNothing) {
  ms::ClusterService service(make_config(1.0, 3));
  const std::vector<mg::Point> points{pt(0, 0.0, 0.0), pt(1, 0.4, 0.0),
                                      pt(2, 0.0, 0.4), pt(3, 5.0, 5.0)};
  ASSERT_TRUE(service.bootstrap(points).ok);
  const auto before = service.snapshot();

  const auto result = service.advance_epoch();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stats.dirty_cells, 0u);
  EXPECT_EQ(result.stats.recluster_points, 0u);
  EXPECT_EQ(result.stats.distance_ops, 0u);
  EXPECT_EQ(service.epoch(), 2u);

  const auto after = service.snapshot();
  EXPECT_EQ(after->epoch, 2u);
  EXPECT_EQ(after->labels, before->labels);
  EXPECT_EQ(after->core, before->core);
  expect_matches_batch(service, "after empty epoch");
}

TEST(ServeLifecycle, DeleteOnlyEpochEmptiesCoreCell) {
  // Five points in one Eps/(2*sqrt(2)) cell (wholesale core with
  // min_pts 4) plus a second tight group far away.
  ms::ClusterService service(make_config(1.0, 4));
  const std::vector<mg::Point> points{
      pt(0, 0.05, 0.05), pt(1, 0.10, 0.10), pt(2, 0.15, 0.05),
      pt(3, 0.10, 0.15), pt(4, 0.05, 0.10), pt(5, 10.0, 10.0),
      pt(6, 10.1, 10.0), pt(7, 10.0, 10.1), pt(8, 10.1, 10.1)};
  ASSERT_TRUE(service.bootstrap(points).ok);
  ASSERT_EQ(service.snapshot()->clusters.size(), 2u);

  for (mg::PointId id = 0; id < 5; ++id) service.remove(id);
  const auto result = service.advance_epoch();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stats.removes, 5u);
  EXPECT_EQ(result.stats.inserts, 0u);

  const auto snapshot = service.snapshot();
  EXPECT_EQ(snapshot->points.size(), 4u);
  EXPECT_EQ(snapshot->clusters.size(), 1u);
  EXPECT_FALSE(service.label_of(0).has_value());
  expect_matches_batch(service, "after emptying the core cell");
}

TEST(ServeLifecycle, MutationInShadowRingReclassifiesNeighborCell) {
  // p sits alone (noise). The insert lands in a different cell — p's cell
  // is never dirty — but p's core status flips because its cell is inside
  // the dirty cell's ring-3 shadow. If the invalidation region were the
  // dirty cells alone, p would stay noise.
  ms::ClusterService service(make_config(1.0, 2));
  ASSERT_TRUE(service.bootstrap(std::vector<mg::Point>{pt(0, 0.0, 0.0)}).ok);
  ASSERT_EQ(service.label_of(0), mrscan::dbscan::kNoise);

  service.insert(pt(1, 0.9, 0.0));
  ASSERT_TRUE(service.advance_epoch().ok);
  const auto label = service.label_of(0);
  ASSERT_TRUE(label.has_value());
  EXPECT_GE(*label, 0);
  EXPECT_EQ(service.label_of(0), service.label_of(1));
  expect_matches_batch(service, "after shadow-ring insert");

  // The reverse shadow effect: removing the far point de-cores p again.
  service.remove(1);
  ASSERT_TRUE(service.advance_epoch().ok);
  EXPECT_EQ(service.label_of(0), mrscan::dbscan::kNoise);
  expect_matches_batch(service, "after shadow-ring remove");
}

TEST(ServeLifecycle, RejectsDuplicateInsertAndUnknownRemove) {
  ms::ClusterService service(make_config(1.0, 2));
  ASSERT_TRUE(service.bootstrap(std::vector<mg::Point>{pt(0, 0.0, 0.0),
                                                       pt(1, 0.2, 0.0)})
                  .ok);
  service.insert(pt(0, 3.0, 3.0));  // id already live
  service.remove(99);               // never existed
  service.insert(pt(2, 0.4, 0.0));
  service.insert(pt(2, 0.5, 0.0));  // id already pending this epoch
  const auto result = service.advance_epoch();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stats.inserts, 1u);
  EXPECT_EQ(result.stats.rejected, 3u);
  EXPECT_EQ(service.live_points(), 3u);
  EXPECT_EQ(service.metrics().snapshot().counter(names::kServeRejected), 3u);
}

TEST(ServeLifecycle, RejectsOutOfDomainInserts) {
  ms::ClusterService service(make_config(1.0, 2));
  ASSERT_TRUE(service.bootstrap(std::vector<mg::Point>{pt(0, 0.0, 0.0),
                                                       pt(1, 0.2, 0.0)})
                  .ok);
  const double inf = std::numeric_limits<double>::infinity();
  service.insert(pt(2, 1e300, 0.5));  // cell index far beyond int32
  service.insert(pt(3, 0.5, -1e300));
  service.insert(pt(4, std::nan(""), 0.5));
  service.insert(pt(5, 0.5, inf));
  service.insert(pt(6, 0.4, 0.0));  // in range: accepted
  const auto result = service.advance_epoch();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stats.inserts, 1u);
  EXPECT_EQ(result.stats.rejected, 4u);
  EXPECT_EQ(service.live_points(), 3u);
  EXPECT_FALSE(service.label_of(2).has_value());
  expect_matches_batch(service, "after rejecting out-of-domain inserts");
}

TEST(ServeLifecycle, ReinsertedCoreIdInvalidatesItsLinks) {
  // Cell (0,0) holds core points 1 and 5; 5 links it to the core pair
  // 9/10 three cells away. Re-inserting id 5 elsewhere in the same cell
  // keeps the cell's core ids, but the link must go: 5 has moved out of
  // Eps of 9.
  ms::ClusterService service(make_config(1.0, 2));
  ASSERT_TRUE(service.bootstrap(std::vector<mg::Point>{
                  pt(1, 0.01, 0.01), pt(5, 0.34, 0.01), pt(9, 1.30, 0.01),
                  pt(10, 1.31, 0.01)})
                  .ok);
  ASSERT_EQ(service.snapshot()->clusters.size(), 1u);

  service.remove(5);
  service.insert(pt(5, 0.02, 0.02));
  const auto result = service.advance_epoch();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stats.edge_tests, 1u);
  EXPECT_EQ(service.snapshot()->clusters.size(), 2u);
  expect_matches_batch(service, "after re-inserting a core id");
}

TEST(ServeLifecycle, BridgeRemovalSplitsAndReinsertMerges) {
  // Core groups A and B are more than Eps apart; the core group in the
  // bridge cell between them links both.
  ms::ClusterService service(make_config(1.0, 3));
  const std::vector<mg::Point> a{pt(0, 0.05, 0.05), pt(1, 0.10, 0.10),
                                 pt(2, 0.15, 0.05)};
  const std::vector<mg::Point> bridge{pt(3, 0.90, 0.05), pt(4, 0.95, 0.10),
                                      pt(5, 1.00, 0.05)};
  const std::vector<mg::Point> b{pt(6, 1.80, 0.05), pt(7, 1.85, 0.10),
                                 pt(8, 1.90, 0.05)};
  std::vector<mg::Point> all = a;
  all.insert(all.end(), bridge.begin(), bridge.end());
  all.insert(all.end(), b.begin(), b.end());
  ASSERT_TRUE(service.bootstrap(all).ok);
  ASSERT_EQ(service.snapshot()->clusters.size(), 1u);

  for (const auto& p : bridge) service.remove(p.id);
  auto result = service.advance_epoch();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(service.snapshot()->clusters.size(), 2u);
  EXPECT_NE(service.label_of(0), service.label_of(6));
  expect_matches_batch(service, "after removing the bridge");

  for (const auto& p : bridge) service.insert(p);
  result = service.advance_epoch();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stats.edge_tests, 2u);
  EXPECT_EQ(service.snapshot()->clusters.size(), 1u);
  EXPECT_EQ(service.label_of(0), service.label_of(6));
  expect_matches_batch(service, "after re-inserting the bridge");

  // A far-away point turns nothing core: no link is re-tested.
  service.insert(pt(9, 50.0, 50.0));
  result = service.advance_epoch();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stats.edge_tests, 0u);
  EXPECT_EQ(service.label_of(9), mrscan::dbscan::kNoise);
  expect_matches_batch(service, "after a far-away insert");
}

TEST(ServeCostModel, SeededTwitterStreamChargesPinnedCounts) {
  // Per-epoch {distance_ops, edge_tests, recluster_points} of a seeded
  // stream, bootstrap first, then one epoch per 32 mutations. These are
  // the counts the Titan model prices; any host-side change to the epoch
  // machinery must leave them exactly as they are.
  struct Counts {
    std::uint64_t distance_ops, edge_tests, recluster_points;
  };
  const std::vector<Counts> expected{
      {18787, 4721, 3000}, {1127, 32, 189},  {958, 37, 376},
      {3004, 194, 846},    {2183, 114, 769}, {1712, 132, 602},
      {1965, 146, 712},    {751, 52, 285},   {1237, 69, 615},
      {1920, 131, 562},    {1543, 128, 520}};
  md::StreamConfig stream_config;
  stream_config.distribution = md::StreamDistribution::kTwitter;
  stream_config.initial_points = 3000;
  stream_config.mutations = 320;
  stream_config.seed = 11;
  const auto stream = md::generate_mutation_stream(stream_config);
  for (const std::size_t threads : {1u, 4u}) {
    auto config = make_config(0.05, 5);
    config.host_threads = threads;
    ms::ClusterService service(config);
    std::vector<ms::EpochStats> epochs;
    epochs.push_back(service.bootstrap(stream.initial).stats);
    for (std::size_t i = 0; i < stream.mutations.size(); ++i) {
      const auto& m = stream.mutations[i];
      if (m.kind == md::Mutation::Kind::kInsert) {
        service.insert(m.point);
      } else {
        service.remove(m.point.id);
      }
      if ((i + 1) % 32 == 0) epochs.push_back(service.advance_epoch().stats);
    }
    ASSERT_EQ(epochs.size(), expected.size());
    for (std::size_t e = 0; e < epochs.size(); ++e) {
      const std::string context = "host_threads " + std::to_string(threads) +
                                  ", epoch " + std::to_string(e + 1);
      EXPECT_EQ(epochs[e].distance_ops, expected[e].distance_ops) << context;
      EXPECT_EQ(epochs[e].edge_tests, expected[e].edge_tests) << context;
      EXPECT_EQ(epochs[e].recluster_points, expected[e].recluster_points)
          << context;
    }
    expect_matches_batch(service, "after the pinned stream");
  }
}

TEST(ServeFault, DroppedPublishRetriesThenSucceeds) {
  auto config = make_config(1.0, 2);
  // Epoch 2 (the first post-bootstrap epoch) loses its first two publish
  // attempts; the third goes through.
  config.fault_plan.drop(2, 0).drop(2, 1);
  ms::ClusterService service(config);
  ASSERT_TRUE(service.bootstrap(std::vector<mg::Point>{pt(0, 0.0, 0.0),
                                                       pt(1, 0.3, 0.0)})
                  .ok);
  service.insert(pt(2, 0.6, 0.0));
  const auto result = service.advance_epoch();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stats.retries, 2u);
  EXPECT_GT(result.stats.sim_seconds, 0.0);
  EXPECT_EQ(service.metrics().snapshot().counter(names::kServeRetries), 2u);
  expect_matches_batch(service, "after retried epoch");
}

TEST(ServeFault, ExhaustedRetryBudgetFailsEpochCleanly) {
  auto config = make_config(1.0, 2);
  for (std::uint32_t attempt = 0; attempt < config.fault_plan.retry.max_attempts;
       ++attempt) {
    config.fault_plan.drop(2, attempt);
  }
  ms::ClusterService service(config);
  ASSERT_TRUE(service.bootstrap(std::vector<mg::Point>{pt(0, 0.0, 0.0),
                                                       pt(1, 0.3, 0.0)})
                  .ok);
  const auto before = service.snapshot();

  service.insert(pt(2, 0.6, 0.0));
  const auto result = service.advance_epoch();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("retry budget exhausted"), std::string::npos);
  // The previous snapshot stays current and the mutation stays pending.
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.pending_mutations(), 1u);
  EXPECT_EQ(service.live_points(), 2u);
  EXPECT_EQ(service.snapshot()->labels, before->labels);
  EXPECT_EQ(service.metrics().snapshot().counter(names::kServeFaultAborts), 1u);
}

TEST(ServeFault, SlowEpochStretchesVirtualSeconds) {
  auto slow = make_config(1.0, 2);
  slow.fault_plan.slow(2, 8.0);
  ms::ClusterService slowed(slow);
  ms::ClusterService plain(make_config(1.0, 2));
  const std::vector<mg::Point> initial{pt(0, 0.0, 0.0), pt(1, 0.3, 0.0)};
  ASSERT_TRUE(slowed.bootstrap(initial).ok);
  ASSERT_TRUE(plain.bootstrap(initial).ok);

  slowed.insert(pt(2, 0.6, 0.0));
  plain.insert(pt(2, 0.6, 0.0));
  const auto slow_result = slowed.advance_epoch();
  const auto plain_result = plain.advance_epoch();
  ASSERT_TRUE(slow_result.ok);
  ASSERT_TRUE(plain_result.ok);
  EXPECT_DOUBLE_EQ(slow_result.stats.sim_seconds,
                   8.0 * plain_result.stats.sim_seconds);
  // Faults never touch labels.
  EXPECT_EQ(slowed.snapshot()->labels, plain.snapshot()->labels);
}

TEST(ServeSnapshots, PinnedEpochSurvivesLaterPublishes) {
  ms::ClusterService service(make_config(1.0, 2));
  ASSERT_TRUE(service.bootstrap(std::vector<mg::Point>{pt(0, 0.0, 0.0),
                                                       pt(1, 0.3, 0.0)})
                  .ok);
  const auto pinned = service.snapshot();
  ASSERT_EQ(pinned->epoch, 1u);

  // Ten more epochs while epoch 1 stays held, watching each new snapshot.
  std::vector<std::weak_ptr<const ms::EpochSnapshot>> published;
  for (mg::PointId id = 2; id < 12; ++id) {
    service.insert(pt(id, 5.0 * static_cast<double>(id), 5.0));
    ASSERT_TRUE(service.advance_epoch().ok);
    published.push_back(service.snapshot());
  }
  // The held epoch keeps only itself alive: every later snapshot but the
  // current one is already freed.
  for (std::size_t i = 0; i + 1 < published.size(); ++i) {
    EXPECT_TRUE(published[i].expired()) << "epoch " << i + 2;
  }
  ASSERT_FALSE(published.back().expired());
  EXPECT_EQ(published.back().lock()->epoch, 11u);

  // The pinned epoch still reads its own points and labels; new queries
  // see the current epoch.
  EXPECT_EQ(pinned->epoch, 1u);
  ASSERT_EQ(pinned->points.size(), 2u);
  EXPECT_EQ(pinned->labels, (std::vector<mrscan::dbscan::ClusterId>{0, 0}));
  EXPECT_EQ(pinned->label_of(1), std::optional<mrscan::dbscan::ClusterId>(0));
  EXPECT_FALSE(pinned->label_of(2).has_value());
  EXPECT_TRUE(service.label_of(2).has_value());
}

TEST(ServeSnapshots, SnapshotOutlivesTheService) {
  auto service = std::make_unique<ms::ClusterService>(make_config(1.0, 2));
  ASSERT_TRUE(service->bootstrap(std::vector<mg::Point>{pt(0, 0.0, 0.0),
                                                        pt(1, 0.3, 0.0),
                                                        pt(2, 9.0, 9.0)})
                  .ok);
  const auto held = service->snapshot();
  service.reset();

  // The service is gone; the snapshot it published still reads.
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(held->epoch, 1u);
  ASSERT_EQ(held->points.size(), 3u);
  EXPECT_EQ(held->labels, (std::vector<mrscan::dbscan::ClusterId>{
                              0, 0, mrscan::dbscan::kNoise}));
  ASSERT_EQ(held->clusters.size(), 1u);
  EXPECT_EQ(held->clusters[0].size, 2u);
  EXPECT_EQ(held->label_of(2),
            std::optional<mrscan::dbscan::ClusterId>(mrscan::dbscan::kNoise));
}

TEST(ServeSnapshots, QueriesRunConcurrentlyWithEpochs) {
  ms::ClusterService service(make_config(0.35, 4));
  md::StreamConfig stream_config;
  stream_config.distribution = md::StreamDistribution::kBlobs;
  stream_config.initial_points = 300;
  stream_config.mutations = 60;
  const auto stream = md::generate_mutation_stream(stream_config);
  ASSERT_TRUE(service.bootstrap(stream.initial).ok);

  std::thread reader([&] {
    for (int i = 0; i < 400; ++i) {
      const auto snapshot = service.snapshot();
      std::size_t labeled = 0;
      for (const auto label : snapshot->labels) {
        if (label >= 0) ++labeled;
      }
      EXPECT_LE(labeled, snapshot->points.size());
      service.label_of(static_cast<mg::PointId>(i % 300));
    }
  });
  for (const auto& m : stream.mutations) {
    if (m.kind == md::Mutation::Kind::kInsert) {
      service.insert(m.point);
    } else {
      service.remove(m.point.id);
    }
    ASSERT_TRUE(service.advance_epoch().ok);
  }
  reader.join();
  expect_matches_batch(service, "after concurrent reads");
}

TEST(ServeQueries, ClusterStatsAggregateTheSnapshot) {
  ms::ClusterService service(make_config(1.0, 2));
  ASSERT_TRUE(service.bootstrap(std::vector<mg::Point>{
                  pt(0, 0.0, 0.0), pt(1, 0.3, 0.0), pt(2, 0.6, 0.0),
                  pt(3, 9.0, 9.0)})
                  .ok);
  const auto snapshot = service.snapshot();
  ASSERT_EQ(snapshot->clusters.size(), 1u);
  const auto stats = service.cluster_stats(0);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->size, 3u);
  EXPECT_EQ(stats->core_points, 3u);
  EXPECT_DOUBLE_EQ(stats->weight, 3.0);
  EXPECT_FALSE(service.cluster_stats(1).has_value());
  EXPECT_FALSE(service.cluster_stats(mrscan::dbscan::kNoise).has_value());
  EXPECT_GE(service.metrics().snapshot().counter(names::kServeQueries), 2u);
}

// ---- the text protocol ----

TEST(ServeScript, RunsEveryCommand) {
  ms::ClusterService service(make_config(1.0, 2));
  std::istringstream in(
      "# two points, one cluster\n"
      "insert 1 0.0 0.0 2.5\n"
      "insert 2 0.3 0.0\n"
      "\n"
      "epoch\n"
      "query 1\n"
      "query 7\n"
      "stats 0\n"
      "stats 3\n"
      "remove 2\n"
      "epoch\n");
  std::ostringstream out;
  const ms::ScriptResult result = ms::run_script(service, in, out);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.commands, 9u);
  EXPECT_EQ(result.epochs, 2u);
  EXPECT_EQ(out.str(),
            "epoch 1 ok points=2 clusters=1 dirty=1 recluster=2\n"
            "query 1 -> 0\n"
            "query 7 -> unknown\n"
            "stats 0 -> size=2 core=2 weight=3.5\n"
            "stats 3 -> unknown\n"
            "epoch 2 ok points=1 clusters=0 dirty=1 recluster=1\n");
}

TEST(ServeScript, RejectsMalformedLinesWithTheirLineNumber) {
  const std::vector<std::pair<std::string, std::string>> cases{
      {"insert 1 0.5 0.5 abc\n", "1: insert wants: id x y [weight]"},
      {"insert 1 0.5 0.5 1 extra\n", "1: insert wants: id x y [weight]"},
      {"epoch\ninsert 1 0.5\n", "2: insert wants: id x y [weight]"},
      {"insert -5 0.5 0.5\n", "1: insert wants: id x y [weight]"},
      {"remove 1 2\n", "1: remove wants: id"},
      {"remove -5\n", "1: remove wants: id"},
      {"query\n", "1: query wants: id"},
      {"query -5\n", "1: query wants: id"},
      {"stats 0 0\n", "1: stats wants: cluster-id"},
      {"epoch now\n", "1: epoch takes no arguments"},
      {"frobnicate\n", "1: unknown command 'frobnicate'"}};
  for (const auto& [script, error] : cases) {
    ms::ClusterService service(make_config(1.0, 2));
    std::istringstream in(script);
    std::ostringstream out;
    const ms::ScriptResult result = ms::run_script(service, in, out);
    EXPECT_FALSE(result.ok) << script;
    EXPECT_EQ(result.error, error) << script;
    EXPECT_EQ(service.pending_mutations(), 0u) << script;
  }
}

// ---- the shared streaming workload generator ----

TEST(MutationStream, DeterministicAndIdUnique) {
  md::StreamConfig config;
  config.initial_points = 200;
  config.mutations = 120;
  const auto a = md::generate_mutation_stream(config);
  const auto b = md::generate_mutation_stream(config);
  ASSERT_EQ(a.initial.size(), 200u);
  ASSERT_EQ(a.mutations.size(), 120u);
  ASSERT_EQ(a.initial.size(), b.initial.size());
  for (std::size_t i = 0; i < a.initial.size(); ++i) {
    EXPECT_EQ(a.initial[i].id, b.initial[i].id);
    EXPECT_DOUBLE_EQ(a.initial[i].x, b.initial[i].x);
  }
  std::vector<mg::PointId> inserted_ids;
  for (std::size_t i = 0; i < a.mutations.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a.mutations[i].kind),
              static_cast<int>(b.mutations[i].kind));
    EXPECT_EQ(a.mutations[i].point.id, b.mutations[i].point.id);
    if (a.mutations[i].kind == md::Mutation::Kind::kInsert) {
      inserted_ids.push_back(a.mutations[i].point.id);
    }
  }
  // Ids are unique across the whole stream: initial ids first, inserted
  // ids strictly above them.
  std::vector<mg::PointId> all_ids;
  for (const auto& p : a.initial) all_ids.push_back(p.id);
  all_ids.insert(all_ids.end(), inserted_ids.begin(), inserted_ids.end());
  std::sort(all_ids.begin(), all_ids.end());
  EXPECT_EQ(std::adjacent_find(all_ids.begin(), all_ids.end()),
            all_ids.end());
}

TEST(MutationStream, RemovesTargetLivePointsAndClockAdvances) {
  md::StreamConfig config;
  config.initial_points = 50;
  config.mutations = 300;
  config.remove_fraction = 0.6;
  const auto stream = md::generate_mutation_stream(config);
  std::vector<mg::PointId> live;
  for (const auto& p : stream.initial) live.push_back(p.id);
  double clock = 0.0;
  std::size_t removes = 0;
  for (const auto& m : stream.mutations) {
    EXPECT_GE(m.timestamp_s, clock);
    clock = m.timestamp_s;
    if (m.kind == md::Mutation::Kind::kRemove) {
      const auto it = std::find(live.begin(), live.end(), m.point.id);
      ASSERT_NE(it, live.end()) << "remove of a dead id";
      live.erase(it);
      ++removes;
    } else {
      EXPECT_EQ(std::find(live.begin(), live.end(), m.point.id), live.end());
      live.push_back(m.point.id);
    }
  }
  EXPECT_GT(removes, 0u);
  EXPECT_LT(removes, stream.mutations.size());
  EXPECT_GT(clock, 0.0);
}

TEST(MutationStream, BothDistributionsReplayThroughTheService) {
  for (const auto dist :
       {md::StreamDistribution::kTwitter, md::StreamDistribution::kBlobs}) {
    md::StreamConfig config;
    config.distribution = dist;
    config.initial_points = 150;
    config.mutations = 30;
    const auto stream = md::generate_mutation_stream(config);
    ms::ClusterService service(
        make_config(dist == md::StreamDistribution::kBlobs ? 0.35 : 0.05, 4));
    ASSERT_TRUE(service.bootstrap(stream.initial).ok);
    for (const auto& m : stream.mutations) {
      if (m.kind == md::Mutation::Kind::kInsert) {
        service.insert(m.point);
      } else {
        service.remove(m.point.id);
      }
    }
    ASSERT_TRUE(service.advance_epoch().ok);
    expect_matches_batch(service, dist == md::StreamDistribution::kBlobs
                                      ? "blobs stream"
                                      : "twitter stream");
  }
}
