#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "mrnet/network.hpp"
#include "mrnet/packet.hpp"
#include "mrnet/topology.hpp"

namespace mn = mrscan::mrnet;

TEST(Topology, FlatShape) {
  const auto t = mn::Topology::flat(8);
  EXPECT_EQ(t.node_count(), 9u);
  EXPECT_EQ(t.leaf_count(), 8u);
  EXPECT_EQ(t.internal_count(), 0u);
  EXPECT_EQ(t.levels(), 2u);
  EXPECT_EQ(t.max_fanout(), 8u);
  for (const auto leaf : t.leaves()) {
    EXPECT_TRUE(t.is_leaf(leaf));
    EXPECT_EQ(t.parent(leaf), 0u);
  }
}

TEST(Topology, BalancedSmallIsFlat) {
  const auto t = mn::Topology::balanced(128, 256);
  EXPECT_EQ(t.internal_count(), 0u);  // Table 1: 0 internals at 128 leaves
  EXPECT_EQ(t.levels(), 2u);
}

TEST(Topology, BalancedMatchesTable1InternalCounts) {
  // Table 1: 512 leaves -> 2 internal, 2048 -> 8, 4096 -> 16, 8192 -> 32.
  const std::pair<std::size_t, std::size_t> expected[] = {
      {512, 2}, {2048, 8}, {4096, 16}, {8192, 32}};
  for (const auto& [leaves, internals] : expected) {
    const auto t = mn::Topology::balanced(leaves, 256);
    EXPECT_EQ(t.internal_count(), internals) << leaves << " leaves";
    EXPECT_EQ(t.leaf_count(), leaves);
    EXPECT_EQ(t.levels(), 3u);
    EXPECT_LE(t.max_fanout(), 256u);
  }
}

TEST(Topology, DeepTreesForNarrowFanouts) {
  // MRNet supports arbitrary-depth trees; narrow fanouts must recurse.
  const auto t = mn::Topology::balanced(128, 8);
  EXPECT_EQ(t.leaf_count(), 128u);
  EXPECT_GE(t.levels(), 4u);
  EXPECT_LE(t.max_fanout(), 8u);
  // Every leaf still reaches the root.
  for (const auto leaf : t.leaves()) {
    std::uint32_t cur = leaf;
    std::size_t hops = 0;
    while (cur != 0 && hops < 10) {
      cur = t.parent(cur);
      ++hops;
    }
    EXPECT_EQ(cur, 0u);
  }
}

TEST(Topology, DeepTreeReductionStillSums) {
  mn::Network net(mn::Topology::balanced(200, 4),
                  mrscan::sim::InterconnectParams{1e-6, 1e12, 1e-7});
  std::vector<mn::Packet> inputs(200);
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    inputs[i].put_u64(i);
    expected += i;
  }
  auto result = net.reduce(
      std::move(inputs),
      [](std::uint32_t, std::vector<mn::Packet> children,
         std::uint64_t& ops) {
        std::uint64_t total = 0;
        for (const auto& c : children) total += c.reader().get_u64();
        ops = children.size();
        mn::Packet out;
        out.put_u64(total);
        return out;
      });
  EXPECT_EQ(result.reader().get_u64(), expected);
}

TEST(Topology, LeafRanksAreDense) {
  const auto t = mn::Topology::balanced(600, 256);
  std::set<std::uint32_t> ranks;
  for (const auto leaf : t.leaves()) ranks.insert(t.leaf_rank(leaf));
  EXPECT_EQ(ranks.size(), 600u);
  EXPECT_EQ(*ranks.begin(), 0u);
  EXPECT_EQ(*ranks.rbegin(), 599u);
}

TEST(Topology, ParentChildConsistency) {
  const auto t = mn::Topology::balanced(1000, 256);
  for (std::uint32_t node = 1; node < t.node_count(); ++node) {
    const auto& siblings = t.children(t.parent(node));
    EXPECT_NE(std::find(siblings.begin(), siblings.end(), node),
              siblings.end());
  }
}

TEST(Packet, RoundTripsScalarsAndVectors) {
  mn::Packet p;
  p.put_u8(7);
  p.put_u64(1ULL << 40);
  p.put_f64(3.25);
  p.put_pod_vector(std::vector<std::uint64_t>{1, 2, 3});
  p.put_pod_vector(std::vector<std::int64_t>{});

  auto r = p.reader();
  EXPECT_EQ(r.get_u8(), 7u);
  EXPECT_EQ(r.get_u64(), 1ULL << 40);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.25);
  EXPECT_EQ(r.get_pod_vector<std::uint64_t>(),
            (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(r.get_pod_vector<std::int64_t>().empty());
  EXPECT_TRUE(r.at_end());
}

TEST(Packet, UnderrunThrows) {
  mn::Packet p;
  p.put_u8(1);
  auto r = p.reader();
  r.get_u8();
  EXPECT_THROW(r.get_u64(), std::invalid_argument);
}

TEST(Packet, CorruptVectorCountThrowsBeforeAllocating) {
  mn::Packet p;
  p.put_u64(1ULL << 60);  // a count far past the bytes that follow
  p.put_u64(0);
  EXPECT_THROW(p.reader().get_pod_vector<std::uint64_t>(),
               std::invalid_argument);
}

TEST(Packet, ChecksumDistinguishesPayloads) {
  mn::Packet a;
  a.put_u64(1);
  mn::Packet b;
  b.put_u64(1);
  mn::Packet c;
  c.put_u64(2);
  EXPECT_EQ(a.checksum(), b.checksum());  // equal bytes, equal checksum
  EXPECT_NE(a.checksum(), c.checksum());
  EXPECT_NE(mn::Packet{}.checksum(), a.checksum());
}

namespace {

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

mrscan::sim::InterconnectParams fast_net() {
  return mrscan::sim::InterconnectParams{1e-6, 1e12, 1e-7};
}

}  // namespace

TEST(Network, ReduceSumsAcrossTree) {
  for (const std::size_t leaves : {4UL, 300UL, 700UL}) {
    mn::Network net(mn::Topology::balanced(leaves, 256), fast_net());
    std::vector<mn::Packet> inputs(leaves);
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < leaves; ++i) {
      inputs[i].put_u64(i + 1);
      expected += i + 1;
    }
    auto result = net.reduce(std::move(inputs), sum_filter);
    EXPECT_EQ(result.reader().get_u64(), expected) << leaves << " leaves";
  }
}

TEST(Network, ReduceRespectsLeafReadyTimes) {
  mn::Network net(mn::Topology::flat(4), fast_net());
  std::vector<mn::Packet> inputs(4);
  for (auto& p : inputs) p.put_u64(1);
  // The slowest leaf gates the reduction — the paper's "the time of the
  // cluster phase is dictated by the slowest node".
  net.reduce(std::move(inputs), sum_filter, {0.0, 0.0, 0.0, 7.5});
  EXPECT_GE(net.stats().last_op_seconds, 7.5);
  EXPECT_LT(net.stats().last_op_seconds, 7.6);
}

TEST(Network, DeeperTreeTakesLongerPerMessage) {
  // Same leaves, same payloads: a 3-level tree pays two link hops.
  mrscan::sim::InterconnectParams slow{1e-3, 1e9, 0.0};  // 1 ms latency
  mn::Network flat(mn::Topology::flat(300), slow);
  mn::Network deep(mn::Topology::balanced(300, 100), slow);
  ASSERT_EQ(deep.topology().levels(), 3u);

  auto make_inputs = [] {
    std::vector<mn::Packet> v(300);
    for (auto& p : v) p.put_u64(1);
    return v;
  };
  flat.reduce(make_inputs(), sum_filter);
  deep.reduce(make_inputs(), sum_filter);
  EXPECT_GT(deep.stats().last_op_seconds, flat.stats().last_op_seconds);
}

TEST(Network, FanoutOverheadShowsUpInTime) {
  // Per-child overhead makes a 256-fanout node slower to drain than a
  // 16-fanout level would be (the paper's MRNet startup observation).
  mrscan::sim::InterconnectParams net_params{0.0, 1e12, 1e-3};
  mn::Network wide(mn::Topology::flat(256), net_params);
  std::vector<mn::Packet> inputs(256);
  for (auto& p : inputs) p.put_u64(1);
  wide.reduce(std::move(inputs), sum_filter);
  // 256 children x 1 ms per-child overhead is paid at least once.
  EXPECT_GE(wide.stats().last_op_seconds, 256 * 1e-3 * 0.9);
}

TEST(Network, MulticastReachesEveryLeafIdentically) {
  mn::Network net(mn::Topology::balanced(500, 64), fast_net());
  mn::Packet msg;
  msg.put_u64(0x9e3779b97f4a7c15ULL);
  std::set<std::uint32_t> seen;
  net.multicast(msg, [&](std::uint32_t rank, const mn::Packet& p) {
    EXPECT_EQ(p.reader().get_u64(), 0x9e3779b97f4a7c15ULL);
    seen.insert(rank);
  });
  EXPECT_EQ(seen.size(), 500u);
}

TEST(Network, ScatterRoutesDistinctPayloads) {
  mn::Network net(mn::Topology::balanced(64, 8), fast_net());
  // Root packet is empty; the router synthesises child-specific packets by
  // appending the child id at each hop; leaves check they got *their* id.
  mn::Packet root;
  std::vector<std::uint32_t> got(64, 0xffffffffu);
  net.scatter(
      root,
      [&](std::uint32_t, const mn::Packet&, std::uint32_t child) {
        mn::Packet p;
        p.put_u64(child);
        return p;
      },
      [&](std::uint32_t rank, const mn::Packet& p) {
        got[rank] = static_cast<std::uint32_t>(p.reader().get_u64());
      });
  for (std::uint32_t rank = 0; rank < 64; ++rank) {
    EXPECT_EQ(got[rank], net.topology().leaves()[rank]);
  }
}

TEST(Network, StatsCountBytesBothWays) {
  mn::Network net(mn::Topology::flat(3), fast_net());
  std::vector<mn::Packet> inputs(3);
  for (auto& p : inputs) p.put_u64(9);
  net.reduce(std::move(inputs), sum_filter);
  EXPECT_EQ(net.stats().packets_up, 4u);  // 3 leaves + root output
  EXPECT_EQ(net.stats().bytes_up, 4 * 8u);

  mn::Packet msg;
  msg.put_u64(1);
  net.multicast(msg, [](std::uint32_t, const mn::Packet&) {});
  EXPECT_EQ(net.stats().packets_down, 3u);
  EXPECT_EQ(net.stats().bytes_down, 3 * 8u);
}

TEST(Network, FilterExceptionIsWrappedWithNodeContext) {
  // Regression: a throwing filter used to propagate bare, with no clue
  // which tree node died and the stats clock left at zero.
  mn::Network net(mn::Topology::balanced(9, 3), fast_net());
  std::vector<mn::Packet> inputs(9);
  for (auto& p : inputs) p.put_u64(1);
  try {
    net.reduce(std::move(inputs),
               [](std::uint32_t node, std::vector<mn::Packet>,
                  std::uint64_t&) -> mn::Packet {
                 if (node == 0) throw std::runtime_error("boom");
                 mn::Packet out;
                 out.put_u64(1);
                 return out;
               });
    FAIL() << "filter exception must propagate";
  } catch (const mn::NetworkError& e) {
    EXPECT_EQ(e.node(), 0u);
    EXPECT_EQ(e.level(), 0u);
    const std::string what = e.what();
    EXPECT_NE(what.find("node 0"), std::string::npos) << what;
    EXPECT_NE(what.find("boom"), std::string::npos) << what;
  }
  // Stats stay consistent: the sends happened (9 leaves + 3 internal
  // nodes; the root never produced output), the clock moved.
  EXPECT_EQ(net.stats().packets_up, 12u);
  EXPECT_GT(net.stats().last_op_seconds, 0.0);
  EXPECT_GT(net.stats().total_seconds, 0.0);
}

TEST(Network, RouterExceptionIsWrappedWithNodeContext) {
  mn::Network net(mn::Topology::flat(4), fast_net());
  mn::Packet root;
  try {
    net.scatter(
        root,
        [](std::uint32_t, const mn::Packet&, std::uint32_t) -> mn::Packet {
          throw std::runtime_error("bad route");
        },
        [](std::uint32_t, const mn::Packet&) {});
    FAIL() << "router exception must propagate";
  } catch (const mn::NetworkError& e) {
    EXPECT_EQ(e.node(), 0u);
    EXPECT_NE(std::string(e.what()).find("bad route"), std::string::npos);
  }
  EXPECT_GE(net.stats().total_seconds, 0.0);
}

TEST(Network, FilterOpsChargeCpuTime) {
  mn::Network slow_cpu(mn::Topology::flat(2), fast_net(), /*cpu_op_rate=*/10.0);
  std::vector<mn::Packet> inputs(2);
  for (auto& p : inputs) p.put_u64(1);
  slow_cpu.reduce(std::move(inputs),
                  [](std::uint32_t, std::vector<mn::Packet> children,
                     std::uint64_t& ops) {
                    ops = 50;  // 50 ops at 10 ops/s = 5 s
                    std::uint64_t total = 0;
                    for (const auto& c : children)
                      total += c.reader().get_u64();
                    mn::Packet out;
                    out.put_u64(total);
                    return out;
                  });
  EXPECT_GE(slow_cpu.stats().last_op_seconds, 5.0);
}
