#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/audit.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mu = mrscan::util;

// ---- Assertion / precondition macros. MRSCAN_ASSERT aborts (invariant
// violations are unrecoverable); MRSCAN_REQUIRE throws (bad inputs are
// the caller's to handle). Death tests pin down both the failure mode
// and the message format the rest of the suite greps for. ----

TEST(AssertMacros, AssertPassesOnTrue) {
  MRSCAN_ASSERT(1 + 1 == 2);
  MRSCAN_ASSERT_MSG(true, "never shown");
  MRSCAN_AUDIT_ASSERT(true);
  MRSCAN_AUDIT_ASSERT_MSG(true, "never shown");
  SUCCEED();
}

TEST(AssertMacrosDeath, AssertAbortsWithExpression) {
  EXPECT_DEATH(MRSCAN_ASSERT(2 + 2 == 5),
               "assertion failed: 2 \\+ 2 == 5");
}

TEST(AssertMacrosDeath, AssertMsgCarriesMessage) {
  EXPECT_DEATH(MRSCAN_ASSERT_MSG(false, "tree imbalance"),
               "assertion failed: false.*tree imbalance");
}

TEST(AssertMacrosDeath, AuditAssertAbortsWithAuditTag) {
  EXPECT_DEATH(MRSCAN_AUDIT_ASSERT(false), "invariant audit failed");
  EXPECT_DEATH(MRSCAN_AUDIT_ASSERT_MSG(false, "shadow hole"),
               "invariant audit failed: false.*shadow hole");
}

TEST(AssertMacros, RequireThrowsInvalidArgument) {
  EXPECT_THROW(MRSCAN_REQUIRE(false), std::invalid_argument);
  EXPECT_THROW(MRSCAN_REQUIRE_MSG(false, "eps must be positive"),
               std::invalid_argument);
  EXPECT_NO_THROW(MRSCAN_REQUIRE(true));
  EXPECT_NO_THROW(MRSCAN_REQUIRE_MSG(true, "ok"));
}

TEST(AssertMacros, RequireMessageNamesExpressionAndReason) {
  try {
    MRSCAN_REQUIRE_MSG(1 > 2, "eps must be positive");
    FAIL() << "MRSCAN_REQUIRE_MSG did not throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition violated"), std::string::npos);
    EXPECT_NE(what.find("1 > 2"), std::string::npos);
    EXPECT_NE(what.find("eps must be positive"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  mu::Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  mu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowIsInRange) {
  mu::Rng rng(7);
  for (std::uint64_t n : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(n), n);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  mu::Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  mu::Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NormalHasApproxUnitMoments) {
  mu::Rng rng(5);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  mu::Rng rng(6);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ParetoRespectsMinimum) {
  mu::Rng rng(8);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto(3.0, 1.5), 3.0);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  mu::Rng parent(9);
  mu::Rng child = parent.split();
  // Child stream should not replay the parent stream.
  mu::Rng parent2(9);
  mu::Rng child2 = parent2.split();
  EXPECT_EQ(child.next_u64(), child2.next_u64());  // deterministic
  mu::Rng fresh(9);
  EXPECT_NE(child2.next_u64(), fresh.next_u64());
}

TEST(Rng, ShuffleIsPermutation) {
  mu::Rng rng(10);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ---- The byte codec: native (little-endian) appends, a bounded reader
// that never moves past its bytes, and the one byte-wise FNV-1a. ----

TEST(Bytes, AppendsLittleEndianAndReadsBack) {
  std::vector<std::uint8_t> buf;
  mu::append(buf, std::uint32_t{0x04030201});
  mu::append(buf, -2.0);
  const char tag[2] = {'o', 'k'};
  mu::append(buf, tag);
  ASSERT_EQ(buf.size(), 14u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
  EXPECT_EQ(mu::load<double>(buf.data() + 4), -2.0);

  mu::ByteReader in(buf);
  std::uint32_t u = 0;
  double d = 0.0;
  char got[2] = {};
  ASSERT_TRUE(in.read(u) && in.read(d) && in.read(got));
  EXPECT_EQ(u, 0x04030201u);
  EXPECT_EQ(d, -2.0);
  EXPECT_EQ(std::string(got, 2), "ok");
  EXPECT_TRUE(in.at_end());
}

TEST(Bytes, UnderrunLeavesTheCursorInPlace) {
  const std::vector<std::uint8_t> buf = {1, 2, 3, 4, 5};
  mu::ByteReader in(buf);
  std::uint32_t u = 0;
  ASSERT_TRUE(in.read(u));
  std::uint64_t big = 7;
  EXPECT_FALSE(in.read(big));
  EXPECT_EQ(big, 7u);
  EXPECT_EQ(in.offset(), 4u);
  EXPECT_FALSE(in.take(2).has_value());
  EXPECT_FALSE(in.take(SIZE_MAX).has_value());
  const auto last = in.take(1);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ((*last)[0], 5);
  EXPECT_TRUE(in.at_end());
  EXPECT_TRUE(in.take(0).has_value());

  mu::ByteReader empty(std::span<const std::uint8_t>{});
  EXPECT_TRUE(empty.read_raw(nullptr, 0));
  EXPECT_FALSE(empty.read(u));
}

TEST(Bytes, Fnv1aMatchesTheStandardVectors) {
  // The 64-bit FNV-1a test vectors: the offset basis for no input.
  EXPECT_EQ(mu::fnv1a({}), 0xcbf29ce484222325ull);
  const std::uint8_t a[] = {'a'};
  EXPECT_EQ(mu::fnv1a(a), 0xaf63dc4c8601ec8cull);
  const std::uint8_t foobar[] = {'f', 'o', 'o', 'b', 'a', 'r'};
  EXPECT_EQ(mu::fnv1a(foobar), 0x85944171f73967e8ull);
}

TEST(ThreadPool, ParallelForCoversRange) {
  mu::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  mu::ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  mu::ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, SingleWorkerIsSequential) {
  mu::ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(0, 10, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

// ---- Exception safety (regression: throwing tasks used to hit the
// noexcept worker loop and std::terminate the process). ----

TEST(ThreadPool, ThrowingSubmitSurfacesFromWaitIdle) {
  mu::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
}

TEST(ThreadPool, FirstExceptionWinsAndWaitClearsIt) {
  mu::ThreadPool pool(1);  // deterministic order: logic_error is first
  pool.submit([] { throw std::logic_error("first"); });
  pool.submit([] { throw std::runtime_error("second"); });
  try {
    pool.wait_idle();
    FAIL() << "wait_idle did not rethrow";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // The slot was cleared: the pool is reusable and idle-able again.
  std::atomic<int> ran{0};
  pool.submit([&] { ran.fetch_add(1); });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, ThrowingParallelForRethrowsAndCompletesRest) {
  mu::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  EXPECT_THROW(
      pool.parallel_for(0, hits.size(),
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                          hits[i].fetch_add(1);
                        }),
      std::runtime_error);
  // A throwing chunk abandons only its own remaining indices; every
  // other chunk still covers its range.
  int covered = 0;
  for (const auto& h : hits) covered += h.load();
  EXPECT_GE(covered, 1);
  // Pool remains fully functional afterwards.
  std::atomic<int> after{0};
  pool.parallel_for(0, 10, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 10);
}

TEST(ThreadPool, DroppedExceptionsAreCountedNotSwallowed) {
  mu::ThreadPool pool(4);
  EXPECT_EQ(pool.dropped_exceptions(), 0u);
  // Every thrown exception either becomes the rethrown "first" or lands in
  // the dropped counter: with 8 throwing tasks, exactly 7 are dropped, no
  // matter how the workers interleave.
  for (int i = 0; i < 8; ++i) {
    pool.submit([] { throw std::runtime_error("worker failure"); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(pool.dropped_exceptions(), 7u);
  // A clean batch afterwards leaves the count untouched (it is a
  // lifetime total, asserted against a baseline by callers).
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) pool.submit([&] { ran.fetch_add(1); });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(pool.dropped_exceptions(), 7u);
}

TEST(ThreadPool, ParallelForFromMultipleWorkersCountsConcurrentThrows) {
  mu::ThreadPool pool(4);
  // 4 chunks of 1 index each; every chunk throws from its own worker.
  EXPECT_THROW(pool.parallel_for(0, 4,
                                 [](std::size_t i) {
                                   throw std::runtime_error(
                                       "chunk " + std::to_string(i));
                                 }),
               std::runtime_error);
  EXPECT_EQ(pool.dropped_exceptions(), 3u);
}

TEST(ThreadPool, CleanRunsDropNothing) {
  mu::ThreadPool pool(4);
  std::atomic<int> sum{0};
  pool.parallel_for(0, 1000, [&](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 1000);
  EXPECT_EQ(pool.dropped_exceptions(), 0u);
}

TEST(ThreadPool, ExceptionDoesNotKillWorkers) {
  mu::ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    pool.submit([] { throw 42; });  // non-std exceptions survive too
    try {
      pool.wait_idle();
      FAIL() << "wait_idle did not rethrow";
    } catch (int v) {
      EXPECT_EQ(v, 42);
    }
  }
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 20);
}
