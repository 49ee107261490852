// Fault-injection battery: seeded faults in the clustering tree must be
// survivable (within the retry budget) without changing the clustering.
// The headline guarantee under test: for any FaultPlan the pipeline can
// recover from, the output is bit-identical to the fault-free run — same
// labels, same records, same cluster count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/mrscan.hpp"
#include "data/twitter.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "mrnet/network.hpp"
#include "mrnet/packet.hpp"
#include "mrnet/topology.hpp"

namespace mc = mrscan::core;
namespace mf = mrscan::fault;
namespace mn = mrscan::mrnet;

namespace {

mrscan::sim::InterconnectParams fast_net() {
  return mrscan::sim::InterconnectParams{1e-6, 1e12, 1e-7};
}

/// Sum-reduction filter: packets carry one u64 each.
mn::Packet sum_filter(std::uint32_t, std::vector<mn::Packet> children,
                      std::uint64_t& ops) {
  std::uint64_t total = 0;
  for (const auto& c : children) total += c.reader().get_u64();
  ops = children.size();
  mn::Packet out;
  out.put_u64(total);
  return out;
}

mn::Packet u64_packet(std::uint64_t v) {
  mn::Packet p;
  p.put_u64(v);
  return p;
}

struct ReduceRun {
  std::uint64_t sum = 0;
  mn::NetworkStats stats;
};

/// Sum 1..leaf_count through the tree, with optional faults + recovery.
ReduceRun run_sum_reduce(const mn::Topology& topo,
                         const mf::FaultInjector* injector = nullptr,
                         mn::Network::RecoveryHandler recovery = nullptr,
                         const std::vector<double>& leaf_ready = {},
                         double cpu_op_rate = 2.0e8) {
  mn::Network net(topo, fast_net(), cpu_op_rate);
  if (injector != nullptr) net.set_fault_injector(injector);
  if (recovery) net.set_recovery_handler(std::move(recovery));
  std::vector<mn::Packet> inputs(topo.leaf_count());
  for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i].put_u64(i + 1);
  auto result = net.reduce(std::move(inputs), sum_filter, leaf_ready);
  return {result.reader().get_u64(), net.stats()};
}

std::uint64_t expected_sum(std::size_t leaves) {
  return static_cast<std::uint64_t>(leaves) * (leaves + 1) / 2;
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultInjector: the pure oracle.
// ---------------------------------------------------------------------------

TEST(FaultInjector, AnswersPointQueries) {
  mf::FaultPlan plan;
  plan.kill(2).kill(5, /*before_cluster=*/false).drop(7, 1).slow(3, 4.0);
  const mf::FaultInjector injector(plan);

  EXPECT_TRUE(injector.active());
  EXPECT_TRUE(injector.leaf_killed(2));
  EXPECT_TRUE(injector.leaf_killed_before_cluster(2));
  EXPECT_TRUE(injector.leaf_killed(5));
  EXPECT_FALSE(injector.leaf_killed_before_cluster(5));
  EXPECT_FALSE(injector.leaf_killed(0));

  EXPECT_TRUE(injector.should_drop(7, 1));
  EXPECT_FALSE(injector.should_drop(7, 0));
  EXPECT_FALSE(injector.should_drop(6, 1));

  EXPECT_DOUBLE_EQ(injector.slow_factor(3), 4.0);
  EXPECT_DOUBLE_EQ(injector.slow_factor(4), 1.0);
  EXPECT_DOUBLE_EQ(injector.arrival_jitter(0, 1), 0.0);  // no reorder
}

TEST(FaultInjector, WildcardMatchesEveryNode) {
  mf::FaultPlan plan;
  plan.drop(mf::kAllNodes, 0).slow(mf::kAllNodes, 2.0);
  const mf::FaultInjector injector(plan);
  for (std::uint32_t node = 0; node < 100; ++node) {
    EXPECT_TRUE(injector.should_drop(node, 0));
    EXPECT_FALSE(injector.should_drop(node, 1));
    EXPECT_DOUBLE_EQ(injector.slow_factor(node), 2.0);
  }
}

TEST(FaultInjector, JitterIsDeterministicSeededAndBounded) {
  mf::FaultPlan plan;
  plan.reorder(mf::kAllNodes, 1e-4);
  const mf::FaultInjector a(plan);
  const mf::FaultInjector b(plan);
  plan.seed = 0xfeedULL;
  const mf::FaultInjector c(plan);

  bool any_positive = false;
  bool seed_changes_some_edge = false;
  for (std::uint32_t parent = 0; parent < 8; ++parent) {
    for (std::uint32_t child = 8; child < 24; ++child) {
      const double j = a.arrival_jitter(parent, child);
      EXPECT_GE(j, 0.0);
      EXPECT_LT(j, 1e-4);
      // Same plan -> byte-identical fault sequence.
      EXPECT_DOUBLE_EQ(j, b.arrival_jitter(parent, child));
      if (j > 0.0) any_positive = true;
      if (j != c.arrival_jitter(parent, child)) seed_changes_some_edge = true;
    }
  }
  EXPECT_TRUE(any_positive);
  EXPECT_TRUE(seed_changes_some_edge);
}

TEST(FaultInjector, RejectsInvalidPlans) {
  {
    mf::FaultPlan plan;
    plan.slow(1, 0.0);  // non-positive slowdown
    EXPECT_THROW(mf::FaultInjector{plan}, std::invalid_argument);
  }
  {
    mf::FaultPlan plan;
    plan.reorder(mf::kAllNodes, -1.0);  // negative jitter
    EXPECT_THROW(mf::FaultInjector{plan}, std::invalid_argument);
  }
  {
    mf::FaultPlan plan;
    plan.drop(0, 0);
    plan.retry.max_attempts = 0;  // no attempt would ever be made
    EXPECT_THROW(mf::FaultInjector{plan}, std::invalid_argument);
  }
  {
    mf::FaultPlan plan;
    plan.drop(0, 0);
    plan.retry.ack_timeout_s = 0.0;  // timers must move the clock
    EXPECT_THROW(mf::FaultInjector{plan}, std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Network-level fault matrix.
// ---------------------------------------------------------------------------

TEST(NetworkFault, DroppedPacketIsRetriedAndResultUnchanged) {
  const auto topo = mn::Topology::flat(6);
  const auto clean = run_sum_reduce(topo);

  mf::FaultPlan plan;
  plan.drop(topo.leaves()[2], 0);
  const mf::FaultInjector injector(plan);
  const auto faulty = run_sum_reduce(topo, &injector);

  EXPECT_EQ(faulty.sum, clean.sum);
  EXPECT_EQ(faulty.sum, expected_sum(6));
  EXPECT_EQ(faulty.stats.packets_dropped, 1u);
  EXPECT_EQ(faulty.stats.timeouts, 1u);
  EXPECT_EQ(faulty.stats.retries, 1u);
  // 6 leaf sends + 1 retransmission + the root output.
  EXPECT_EQ(faulty.stats.packets_up, 8u);
  // The retry waited out an ack timeout plus backoff: visibly slower.
  EXPECT_GT(faulty.stats.last_op_seconds, clean.stats.last_op_seconds);
  EXPECT_GE(faulty.stats.last_op_seconds,
            plan.retry.ack_timeout_s + plan.retry.backoff_seconds(0));
}

TEST(NetworkFault, EveryNodeDroppingFirstAttemptStillConverges) {
  const auto topo = mn::Topology::balanced(9, 3);
  ASSERT_GT(topo.internal_count(), 0u);
  mf::FaultPlan plan;
  plan.drop(mf::kAllNodes, 0);
  const mf::FaultInjector injector(plan);
  const auto run = run_sum_reduce(topo, &injector);

  EXPECT_EQ(run.sum, expected_sum(9));
  // Every non-root node (leaves and internals) lost its first attempt.
  EXPECT_EQ(run.stats.packets_dropped, topo.node_count() - 1);
  EXPECT_EQ(run.stats.retries, topo.node_count() - 1);
}

TEST(NetworkFault, ExhaustedRetryBudgetThrowsCleanNetworkError) {
  const auto topo = mn::Topology::flat(3);
  mf::FaultPlan plan;
  const std::uint32_t victim = topo.leaves()[1];
  for (std::uint32_t a = 0; a < plan.retry.max_attempts; ++a) {
    plan.drop(victim, a);
  }
  const mf::FaultInjector injector(plan);

  try {
    run_sum_reduce(topo, &injector);
    FAIL() << "retry budget exhaustion must not succeed";
  } catch (const mn::NetworkError& e) {
    EXPECT_NE(std::string(e.what()).find("retry budget"), std::string::npos)
        << e.what();
    EXPECT_EQ(e.node(), victim);
    EXPECT_EQ(e.level(), 1u);
  }
}

TEST(NetworkFault, ExhaustionLeavesStatsConsistent) {
  const auto topo = mn::Topology::flat(3);
  mf::FaultPlan plan;
  for (std::uint32_t a = 0; a < plan.retry.max_attempts; ++a) {
    plan.drop(topo.leaves()[0], a);
  }
  const mf::FaultInjector injector(plan);

  mn::Network net(topo, fast_net());
  net.set_fault_injector(&injector);
  std::vector<mn::Packet> inputs(3);
  for (auto& p : inputs) p.put_u64(1);
  EXPECT_THROW(net.reduce(std::move(inputs), sum_filter), mn::NetworkError);
  // Counters reflect what actually happened before the failure, and the
  // clock recorded when the round died (every backoff was waited out).
  EXPECT_EQ(net.stats().packets_dropped, plan.retry.max_attempts);
  EXPECT_EQ(net.stats().timeouts, plan.retry.max_attempts);
  EXPECT_EQ(net.stats().retries, plan.retry.max_attempts - 1);
  EXPECT_GT(net.stats().last_op_seconds, 0.0);
  EXPECT_GT(net.stats().total_seconds, 0.0);
}

TEST(NetworkFault, ReorderJitterNeverChangesTheResult) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xdeadULL}) {
    const auto topo = mn::Topology::balanced(16, 4);
    const auto clean = run_sum_reduce(topo);
    mf::FaultPlan plan;
    plan.seed = seed;
    plan.reorder(mf::kAllNodes, 2e-4);
    const mf::FaultInjector injector(plan);
    const auto faulty = run_sum_reduce(topo, &injector);

    EXPECT_EQ(faulty.sum, clean.sum) << "seed " << seed;
    EXPECT_GT(faulty.stats.reorders_injected, 0u) << "seed " << seed;
    // Jitter below the ack timeout must not trigger retransmissions.
    EXPECT_EQ(faulty.stats.retries, 0u) << "seed " << seed;
  }
}

TEST(NetworkFault, SlowLeafGatesTheReduction) {
  const auto topo = mn::Topology::flat(4);
  mf::FaultPlan plan;
  plan.slow(topo.leaves()[2], 5.0);
  const mf::FaultInjector injector(plan);
  const std::vector<double> ready(4, 1.0);
  const auto run = run_sum_reduce(topo, &injector, nullptr, ready);
  EXPECT_EQ(run.sum, expected_sum(4));
  // The straggler's ready time is scaled 1.0 -> 5.0 and gates the round.
  EXPECT_GE(run.stats.last_op_seconds, 5.0);
}

TEST(NetworkFault, SlowInternalNodeScalesFilterCompute) {
  const auto topo = mn::Topology::flat(2);
  mf::FaultPlan plan;
  plan.slow(0, 2.0);  // the root
  const mf::FaultInjector injector(plan);
  // 50 ops at 10 ops/s = 5 s of filter compute, doubled by the slowdown.
  mn::Network net(topo, fast_net(), /*cpu_op_rate=*/10.0);
  net.set_fault_injector(&injector);
  std::vector<mn::Packet> inputs(2);
  for (auto& p : inputs) p.put_u64(1);
  net.reduce(std::move(inputs),
             [](std::uint32_t, std::vector<mn::Packet> children,
                std::uint64_t& ops) {
               ops = 50;
               std::uint64_t total = 0;
               for (const auto& c : children) total += c.reader().get_u64();
               mn::Packet out;
               out.put_u64(total);
               return out;
             });
  EXPECT_GE(net.stats().last_op_seconds, 10.0);
}

TEST(NetworkFault, KilledLeafIsRecoveredViaSibling) {
  const auto topo = mn::Topology::flat(4);
  const auto clean = run_sum_reduce(topo);

  mf::FaultPlan plan;
  plan.kill(2);
  plan.retry.leaf_timeout_s = 2.0;
  const mf::FaultInjector injector(plan);
  const double kRecoveryCost = 0.25;
  const auto faulty = run_sum_reduce(
      topo, &injector,
      [&](std::uint32_t rank, double detected_at, double& cost) {
        EXPECT_EQ(rank, 2u);
        EXPECT_DOUBLE_EQ(detected_at, plan.retry.leaf_timeout_s);
        cost = kRecoveryCost;
        return u64_packet(rank + 1);  // replay exactly what rank 2 owed
      });

  EXPECT_EQ(faulty.sum, clean.sum);
  EXPECT_EQ(faulty.stats.leaves_recovered, 1u);
  ASSERT_EQ(faulty.stats.recoveries.size(), 1u);
  const mn::RecoveryEvent& event = faulty.stats.recoveries[0];
  EXPECT_EQ(event.leaf_rank, 2u);
  EXPECT_NE(event.recovered_by, 2u);  // a live sibling took over
  EXPECT_DOUBLE_EQ(event.detected_at, plan.retry.leaf_timeout_s);
  EXPECT_DOUBLE_EQ(event.completed_at, event.detected_at + kRecoveryCost);
  EXPECT_DOUBLE_EQ(faulty.stats.recovery_seconds, kRecoveryCost);
  // Detection + re-read are charged to the clock.
  EXPECT_GE(faulty.stats.last_op_seconds,
            plan.retry.leaf_timeout_s + kRecoveryCost);
}

TEST(NetworkFault, KillWithoutRecoveryHandlerIsRejected) {
  const auto topo = mn::Topology::flat(4);
  mf::FaultPlan plan;
  plan.kill(1);
  const mf::FaultInjector injector(plan);
  EXPECT_THROW(run_sum_reduce(topo, &injector), std::invalid_argument);
}

TEST(NetworkFault, KillRankOutsideTreeIsRejected) {
  const auto topo = mn::Topology::flat(4);
  mf::FaultPlan plan;
  plan.kill(10);
  const mf::FaultInjector injector(plan);
  EXPECT_THROW(
      run_sum_reduce(topo, &injector,
                     [](std::uint32_t, double, double& cost) {
                       cost = 0.0;
                       return u64_packet(0);
                     }),
      std::invalid_argument);
}

TEST(NetworkFault, LateOriginalsAndRetransmitsDeduplicate) {
  // Pathological policy: ack timeout below the link latency, so every
  // attempt times out before its (still successful) delivery. Retransmits
  // race originals — duplicates must be discarded, and the budget must
  // eventually fail the round instead of hanging.
  const auto topo = mn::Topology::flat(2);
  mf::FaultPlan plan;
  plan.reorder(mf::kAllNodes, 0.0);  // activate the plan without faults
  plan.retry.ack_timeout_s = 1e-7;   // < 1 us link latency
  const mf::FaultInjector injector(plan);

  mn::Network net(topo, fast_net());
  net.set_fault_injector(&injector);
  std::vector<mn::Packet> inputs(2);
  for (auto& p : inputs) p.put_u64(1);
  EXPECT_THROW(net.reduce(std::move(inputs), sum_filter), mn::NetworkError);
  EXPECT_GE(net.stats().duplicates_discarded, 2u);
  EXPECT_EQ(net.stats().packets_dropped, 0u);
}

// ---------------------------------------------------------------------------
// Pipeline-level fault matrix: the headline bit-identical guarantee.
// ---------------------------------------------------------------------------

namespace {

mrscan::geom::PointSet fault_points() {
  mrscan::data::TwitterConfig tw;
  tw.num_points = 8000;
  tw.seed = 11;
  return mrscan::data::generate_twitter(tw);
}

mc::MrScanConfig fault_config() {
  mc::MrScanConfig config;
  config.params = {0.1, 20};
  config.leaves = 4;
  config.fanout = 4;
  config.partition_nodes = 2;
  return config;
}

}  // namespace

TEST(PipelineFault, FaultFreeRunReportsNoFaultActivity) {
  const auto points = fault_points();
  const auto result = mc::MrScan(fault_config()).run(points);
  EXPECT_EQ(result.merge_net.leaves_recovered, 0u);
  EXPECT_EQ(result.merge_net.packets_dropped, 0u);
  EXPECT_EQ(result.merge_net.retries, 0u);
  EXPECT_EQ(result.merge_net.timeouts, 0u);
  EXPECT_TRUE(result.merge_net.recoveries.empty());
}

TEST(PipelineFault, MatrixYieldsBitIdenticalOutput) {
  const auto points = fault_points();
  const auto base_cfg = fault_config();
  const auto baseline = mc::MrScan(base_cfg).run(points);
  ASSERT_GE(baseline.leaves_used, 3u);
  const auto baseline_labels = baseline.labels_for(points);

  struct Case {
    std::string name;
    mf::FaultPlan plan;
  };
  std::vector<Case> cases;
  {
    Case c{"drop-every-first-attempt", {}};
    c.plan.drop(mf::kAllNodes, 0);
    cases.push_back(std::move(c));
  }
  for (const std::uint64_t seed : {7ULL, 99ULL}) {
    Case c{"reorder-seed-" + std::to_string(seed), {}};
    c.plan.seed = seed;
    c.plan.reorder(mf::kAllNodes, 2e-4);
    cases.push_back(std::move(c));
  }
  {
    Case c{"straggler-everywhere", {}};
    c.plan.slow(mf::kAllNodes, 3.0);
    cases.push_back(std::move(c));
  }
  {
    Case c{"kill-before-cluster", {}};
    c.plan.kill(1, /*before_cluster=*/true);
    c.plan.retry.leaf_timeout_s = 2.0;
    cases.push_back(std::move(c));
  }
  {
    Case c{"kill-during-cluster", {}};
    c.plan.kill(2, /*before_cluster=*/false);
    c.plan.retry.leaf_timeout_s = 2.0;
    cases.push_back(std::move(c));
  }
  {
    Case c{"combined-chaos", {}};
    c.plan.seed = 0xc0ffeeULL;
    c.plan.kill(0)
        .drop(mf::kAllNodes, 0)
        .reorder(mf::kAllNodes, 2e-4)
        .slow(mf::kAllNodes, 2.0);
    c.plan.retry.leaf_timeout_s = 2.0;
    cases.push_back(std::move(c));
  }

  for (const Case& c : cases) {
    auto cfg = base_cfg;
    cfg.fault_plan = c.plan;
    const auto faulty = mc::MrScan(cfg).run(points);
    EXPECT_EQ(faulty.cluster_count, baseline.cluster_count) << c.name;
    EXPECT_EQ(faulty.labels_for(points), baseline_labels) << c.name;
    // Stronger than label equality: the output records themselves are
    // bit-identical (same points, same order, same ids).
    EXPECT_TRUE(faulty.output == baseline.output) << c.name;
    // Fault handling costs time; it must never make the run faster.
    EXPECT_GE(faulty.sim.cluster_merge, baseline.sim.cluster_merge) << c.name;
  }
}

TEST(PipelineFault, KillingTheSlowestLeafStillReportsItsDeviceTime) {
  // Regression: gpu_dbscan_seconds used to be a max taken only inside the
  // main cluster loop, so a leaf killed before clustering — whose
  // device_seconds only exist once the recovery handler re-clusters it
  // during the reduction — silently vanished from the reported max.
  // Killing the slowest leaf made the "slowest leaf device time" shrink.
  const auto points = fault_points();
  const auto baseline = mc::MrScan(fault_config()).run(points);
  ASSERT_GT(baseline.gpu_dbscan_seconds, 0.0);

  std::uint32_t slowest = 0;
  for (std::uint32_t leaf = 0; leaf < baseline.leaf_stats.size(); ++leaf) {
    if (baseline.leaf_stats[leaf].device_seconds >
        baseline.leaf_stats[slowest].device_seconds) {
      slowest = leaf;
    }
  }
  ASSERT_DOUBLE_EQ(baseline.leaf_stats[slowest].device_seconds,
                   baseline.gpu_dbscan_seconds);

  auto cfg = fault_config();
  cfg.fault_plan.kill(slowest, /*before_cluster=*/true);
  cfg.fault_plan.retry.leaf_timeout_s = 2.0;
  const auto result = mc::MrScan(cfg).run(points);

  EXPECT_EQ(result.merge_net.leaves_recovered, 1u);
  // Recovery re-clusters deterministically, so the recovered leaf's
  // device time equals what the dead leaf would have reported — and it
  // must reach the reduced max.
  EXPECT_DOUBLE_EQ(result.gpu_dbscan_seconds, baseline.gpu_dbscan_seconds);
}

TEST(PipelineFault, RecoveryIsReportedInStatsAndChargedToTheClock) {
  const auto points = fault_points();
  auto cfg = fault_config();
  cfg.fault_plan.kill(1);
  cfg.fault_plan.retry.leaf_timeout_s = 2.0;
  const auto result = mc::MrScan(cfg).run(points);

  EXPECT_EQ(result.merge_net.leaves_recovered, 1u);
  EXPECT_GT(result.merge_net.recovery_seconds, 0.0);
  EXPECT_GT(result.merge_net.timeouts, 0u);
  ASSERT_EQ(result.merge_net.recoveries.size(), 1u);
  const mn::RecoveryEvent& event = result.merge_net.recoveries[0];
  EXPECT_EQ(event.leaf_rank, 1u);
  EXPECT_GE(event.detected_at, 2.0);
  EXPECT_GT(event.completed_at, event.detected_at);
  // Detection (the watchdog timeout) dominates the merge-phase clock.
  EXPECT_GE(result.sim.cluster_merge, 2.0);
}

TEST(PipelineFault, RetriesStayWithinBudget) {
  const auto points = fault_points();
  auto cfg = fault_config();
  cfg.fault_plan.drop(mf::kAllNodes, 0).drop(mf::kAllNodes, 1);
  const auto result = mc::MrScan(cfg).run(points);
  EXPECT_GT(result.merge_net.retries, 0u);
  // Each sender retried at most max_attempts - 1 times.
  EXPECT_LE(result.merge_net.retries, result.merge_net.packets_dropped);
  EXPECT_LE(
      result.merge_net.retries,
      static_cast<std::uint64_t>(cfg.fault_plan.retry.max_attempts - 1) *
          (result.merge_net.packets_up + 1));
}

TEST(PipelineFault, ExhaustedBudgetFailsCleanlyInsteadOfHanging) {
  const auto points = fault_points();
  auto cfg = fault_config();
  for (std::uint32_t a = 0; a < cfg.fault_plan.retry.max_attempts; ++a) {
    cfg.fault_plan.drop(mf::kAllNodes, a);
  }
  try {
    mc::MrScan(cfg).run(points);
    FAIL() << "an unrecoverable plan must raise";
  } catch (const mn::NetworkError& e) {
    EXPECT_NE(std::string(e.what()).find("retry budget"), std::string::npos)
        << e.what();
  }
}

TEST(PipelineFault, KillRankBeyondPartitionsIsRejected) {
  const auto points = fault_points();
  auto cfg = fault_config();
  cfg.fault_plan.kill(1000);
  EXPECT_THROW(mc::MrScan(cfg).run(points), std::invalid_argument);
}
