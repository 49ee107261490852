// Proof of the allocation-free query engine contract (DESIGN §10): once a
// QueryScratch is warm, radius_query / count_in_radius / *_many on KDTree
// and BVH perform ZERO heap allocations. The whole binary runs under a
// counting global operator new, so any hidden allocation on the
// steady-state path — a stack regrowth, a temporary vector, a span copy
// gone wrong — shows up as a nonzero delta.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <span>
#include <vector>

#include "data/synthetic.hpp"
#include "geometry/point.hpp"
#include "index/bvh.hpp"
#include "index/kdtree.hpp"
#include "index/query_scratch.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded ? rounded : align)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

namespace mg = mrscan::geom;
namespace mi = mrscan::index;

mg::PointSet test_points(std::size_t n, std::uint64_t seed) {
  return mrscan::data::uniform_points(n, mg::BBox{0.0, 0.0, 10.0, 10.0},
                                      seed);
}

std::vector<std::uint32_t> all_indices(std::size_t n) {
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::uint32_t{0});
  return idx;
}

/// Run `body` twice: once to warm the scratch, once counted. Returns the
/// allocation delta of the counted run; both runs must produce the same
/// checksum (so the work cannot be optimized away or diverge).
template <typename Body>
std::uint64_t steady_state_allocations(Body&& body) {
  const std::uint64_t warm = body();
  const std::uint64_t before = g_allocations.load();
  const std::uint64_t counted = body();
  const std::uint64_t delta = g_allocations.load() - before;
  EXPECT_EQ(warm, counted) << "warm-up and counted runs diverged";
  return delta;
}

TEST(QueryAlloc, KDTreeSteadyStateIsAllocationFree) {
  const auto pts = test_points(4000, 21);
  const mi::KDTree tree(pts, mi::KDTreeConfig{24, 0.0});
  const auto queries = all_indices(pts.size());
  mi::QueryScratch scratch;

  const std::uint64_t delta = steady_state_allocations([&] {
    std::uint64_t checksum = 0;
    tree.radius_query_many(
        queries, 0.4, scratch,
        [&](std::size_t, std::span<const std::uint32_t> neighbors,
            std::uint64_t ops) {
          checksum += neighbors.size() + ops;
          for (const std::uint32_t nb : neighbors) checksum += nb;
        });
    tree.count_in_radius_many(
        queries, 0.4, 4, scratch,
        [&](std::size_t, std::size_t count, std::uint64_t ops) {
          checksum += count + ops;
        });
    checksum += tree.count_in_radius(pts[0], 0.4, scratch);
    checksum += tree.radius_query(pts[1], 0.4, scratch).size();
    return checksum;
  });
  EXPECT_EQ(delta, 0u);
}

TEST(QueryAlloc, BVHSteadyStateIsAllocationFree) {
  const auto pts = test_points(4000, 25);
  const mi::BVH tree(pts, mi::BVHConfig{24, 0.0});
  const auto queries = all_indices(pts.size());
  mi::QueryScratch scratch;

  const std::uint64_t delta = steady_state_allocations([&] {
    std::uint64_t checksum = 0;
    tree.radius_query_many(
        queries, 0.4, scratch,
        [&](std::size_t, std::span<const std::uint32_t> neighbors,
            std::uint64_t ops) {
          checksum += neighbors.size() + ops;
          for (const std::uint32_t nb : neighbors) checksum += nb;
        });
    tree.count_in_radius_many(
        queries, 0.4, 4, scratch,
        [&](std::size_t, std::size_t count, std::uint64_t ops) {
          checksum += count + ops;
        });
    // The fused path must be allocation-free too — it is the hot loop of
    // the BVH-backed kernels.
    tree.for_each_in_radius_many(
        queries, 0.4, scratch,
        [&](std::size_t, std::uint32_t idx) { checksum += idx; },
        [&](std::size_t, mi::TraversalCost cost) {
          checksum += cost.total();
        });
    checksum += tree.count_in_radius(pts[0], 0.4, scratch);
    checksum += tree.radius_query(pts[1], 0.4, scratch).size();
    return checksum;
  });
  EXPECT_EQ(delta, 0u);
}

TEST(QueryAlloc, CounterSeesOrdinaryAllocations) {
  // Sanity check on the harness itself: an actual allocation is counted.
  const std::uint64_t before = g_allocations.load();
  std::vector<std::uint32_t>* v = new std::vector<std::uint32_t>(100);
  const std::uint64_t after = g_allocations.load();
  delete v;
  EXPECT_GT(after, before);
}

}  // namespace
