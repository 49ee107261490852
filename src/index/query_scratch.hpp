// Caller-owned scratch for the neighbor-query engine.
//
// Every Eps-neighbourhood query needs two pieces of transient storage: a
// traversal stack (node ids still to visit) and a result buffer (neighbor
// indices). Allocating them inside the query — as the first version of
// KDTree::radius_query did — puts a heap allocation on the hottest path of
// the whole pipeline: one per point per pass of the cluster phase. A
// QueryScratch owns both buffers across calls, so after a warm-up query
// the steady-state query path performs zero heap allocations (asserted by
// tests/test_query_alloc.cpp with an instrumented allocator).
//
// Ownership / threading model (DESIGN §10): the CALLER allocates the
// scratch and keeps it alive across queries; the index only borrows it for
// the duration of one call. A scratch is not thread-safe and must not be
// shared between host workers — under host_threads > 1 each worker (each
// leaf task in the cluster phase) owns its own scratch. Scratch contents
// never influence query results, only where they are materialised, so the
// bit-identical-output determinism contract is unaffected.
#pragma once

#include <cstdint>
#include <vector>

namespace mrscan::index {

struct QueryScratch {
  /// Node ids still to visit (KD-tree / BVH traversal).
  std::vector<std::uint32_t> stack;
  /// Neighbor indices of the most recent collecting query. Valid until the
  /// next query through the same scratch.
  std::vector<std::uint32_t> results;

  /// Pre-size both buffers so even the first query avoids reallocation.
  void reserve(std::size_t stack_hint, std::size_t result_hint) {
    stack.reserve(stack_hint);
    results.reserve(result_hint);
  }
};

}  // namespace mrscan::index
