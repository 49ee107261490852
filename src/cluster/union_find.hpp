// Disjoint-set (union-find) with path halving and union by size.
//
// Promoted to the shared cluster module: this is the structure every
// cluster phase leans on — resolving GPGPU block collisions and
// cell-graph cell connections into clusters (§3.2.1), and merging
// cluster summaries at tree nodes (§3.3.2).
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "util/assert.hpp"

namespace mrscan::cluster {

class UnionFind {
 public:
  UnionFind() = default;
  explicit UnionFind(std::size_t n) { reset(n); }

  void reset(std::size_t n) {
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), std::uint32_t{0});
    size_.assign(n, 1);
  }

  std::size_t size() const { return parent_.size(); }

  /// Append a new singleton set; returns its id.
  std::uint32_t add() {
    const auto id = static_cast<std::uint32_t>(parent_.size());
    parent_.push_back(id);
    size_.push_back(1);
    return id;
  }

  std::uint32_t find(std::uint32_t x) {
    MRSCAN_ASSERT(x < parent_.size());
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  /// Union the sets containing a and b; returns the new root.
  std::uint32_t unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return a;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    return a;
  }

  bool same(std::uint32_t a, std::uint32_t b) { return find(a) == find(b); }

  /// Number of elements in x's set.
  std::uint32_t set_size(std::uint32_t x) { return size_[find(x)]; }

  /// Count distinct sets (O(n)).
  std::size_t count_sets() {
    std::size_t c = 0;
    for (std::uint32_t i = 0; i < parent_.size(); ++i)
      if (find(i) == i) ++c;
    return c;
  }

  /// Deep audit: every parent pointer in range and every chain reaches a
  /// root within size() steps (i.e. the forest is acyclic). Aborts on
  /// violation; used by the MRSCAN_CHECK_INVARIANTS merge audits.
  void validate() const {
    const std::size_t n = parent_.size();
    MRSCAN_ASSERT_MSG(size_.size() == n, "union-find size table mismatch");
    for (std::uint32_t i = 0; i < n; ++i) {
      MRSCAN_ASSERT_MSG(parent_[i] < n, "union-find parent out of range");
      std::uint32_t x = i;
      std::size_t steps = 0;
      while (parent_[x] != x) {
        x = parent_[x];
        MRSCAN_ASSERT_MSG(++steps <= n, "union-find parent chain cyclic");
      }
    }
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
};

}  // namespace mrscan::cluster
