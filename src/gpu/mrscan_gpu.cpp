#include "gpu/mrscan_gpu.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <vector>

#include "cluster/cell_graph_ops.hpp"
#include "cluster/union_find.hpp"
#include "geometry/bbox.hpp"
#include "gpu/dense_box.hpp"
#include "gpu/device_layout.hpp"
#include "index/backend.hpp"
#include "index/bvh.hpp"
#include "index/grid.hpp"
#include "index/kdtree.hpp"
#include "index/query_scratch.hpp"
#include "util/assert.hpp"

namespace mrscan::gpu {

namespace {

constexpr std::uint32_t kNoChain = 0xffffffffu;

// ---- Traversal engines -------------------------------------------------
//
// One uniform surface over the two index backends so the two-pass and
// cell-graph paths below are written once (DESIGN §13):
//   * KdTreeEngine — the oracle shape: kernels materialize each neighbor
//     span through the batched radius_query_many API and charge the cost
//     model per distance test (the PR-5 accounting, unchanged).
//   * BvhEngine — fused traversal after ArborX's FDBSCAN: the per-neighbor
//     callback fires *inside* the tree walk, no neighbor list is ever
//     built, and the charge is distance tests + visited nodes, so the
//     simulated figures price the traversal itself, not just the leaf
//     scans.
// Both engines invoke callbacks in ascending query order with a
// deterministic per-query neighbor order, so the union/classification
// logic layered on top stays bit-identical for any host_threads — and the
// final labels are backend-independent because core classification is
// exact and cluster structure is a connectivity closure (see DESIGN §13
// for the argument).

struct KdTreeEngine {
  const index::KDTree& tree;
  index::QueryScratch& scratch;
  std::uint64_t node_steps = 0;  // stays 0: this backend charges dist ops

  /// fn(q, count, charge) per query, in order.
  template <typename Fn>
  void count_many(std::span<const std::uint32_t> wave, double eps,
                  std::size_t at_least, Fn&& fn) {
    tree.count_in_radius_many(wave, eps, at_least, scratch, fn);
  }

  /// visit(q, neighbor_idx) per neighbor, done(q, charge) per query.
  template <typename Visit, typename Done>
  void neighbors_many(std::span<const std::uint32_t> wave, double eps,
                      Visit&& visit, Done&& done) {
    tree.radius_query_many(
        wave, eps, scratch,
        [&](std::size_t q, std::span<const std::uint32_t> neighbors,
            std::uint64_t ops) {
          for (const std::uint32_t idx : neighbors) visit(q, idx);
          done(q, ops);
        });
  }
};

struct BvhEngine {
  const index::BVH& tree;
  index::QueryScratch& scratch;
  std::uint64_t node_steps = 0;  // fused-walk steps, for gpu.bvh.* stats

  template <typename Fn>
  void count_many(std::span<const std::uint32_t> wave, double eps,
                  std::size_t at_least, Fn&& fn) {
    for (std::size_t q = 0; q < wave.size(); ++q) {
      std::uint64_t ops = 0;
      std::uint64_t steps = 0;
      const std::size_t found = tree.count_in_radius(
          tree.point_at(wave[q]), eps, scratch, at_least, &ops, &steps);
      node_steps += steps;
      fn(q, found, ops + steps);
    }
  }

  template <typename Visit, typename Done>
  void neighbors_many(std::span<const std::uint32_t> wave, double eps,
                      Visit&& visit, Done&& done) {
    tree.for_each_in_radius_many(
        wave, eps, scratch, visit,
        [&](std::size_t q, index::TraversalCost cost) {
          node_steps += cost.node_steps;
          done(q, cost.total());
        });
  }
};

/// Connect dense boxes that are mutually Eps-reachable. Two dense boxes
/// whose point sets contain an Eps-close pair belong to one cluster; since
/// dense points are never expanded, this link must be established
/// explicitly. Candidate pairs are found through a grid of 2 Eps cells
/// over box centres (boxes are at most (sqrt(2)/2) Eps wide, so
/// Eps-reachable boxes have centres within 2 Eps). Like the expansion
/// passes, the kernel spreads its distance computations across
/// `block_count` blocks (one box per block, round-robin) — charging
/// everything to a single block made dense-box-heavy runs misreport the
/// simulated kernel time, which is the max over blocks, not the sum.
template <typename Tree>
void connect_dense_boxes(const Tree& tree, const DenseBoxes& dense,
                         double eps, std::uint32_t block_count,
                         const std::vector<std::uint32_t>& box_chain,
                         cluster::UnionFind& chains, std::uint64_t& collisions,
                         VirtualDevice& device) {
  if (dense.count() < 2) return;
  const auto leaves = tree.leaves();
  geom::PointSet centers(dense.count());
  for (std::uint32_t b = 0; b < dense.count(); ++b) {
    const auto& box = leaves[dense.leaf_ids[b]].box;
    centers[b].x = 0.5 * (box.min_x + box.max_x);
    centers[b].y = 0.5 * (box.min_y + box.max_y);
  }
  const index::Grid grid(geom::GridGeometry{0.0, 0.0, 2.0 * eps}, centers);

  const double eps2 = eps * eps;
  std::vector<std::uint64_t> block_ops(block_count, 0);

  for (std::uint32_t a = 0; a < dense.count(); ++a) {
    const auto& leaf_a = leaves[dense.leaf_ids[a]];
    std::uint64_t& ops = block_ops[a % block_count];
    // Box min-distance prefilter bound, hoisted: inflate box a once per a,
    // not once per candidate pair.
    geom::BBox inflated = leaf_a.box;
    inflated.min_x -= eps;
    inflated.min_y -= eps;
    inflated.max_x += eps;
    inflated.max_y += eps;
    const geom::CellKey base = grid.geometry().cell_of(centers[a]);
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      for (std::int32_t dx = -1; dx <= 1; ++dx) {
        for (const std::uint32_t b :
             grid.points_in(geom::CellKey{base.ix + dx, base.iy + dy})) {
          if (b <= a) continue;
          if (chains.same(box_chain[a], box_chain[b])) continue;
          const auto& leaf_b = leaves[dense.leaf_ids[b]];
          if (!inflated.intersects(leaf_b.box)) continue;
          // Cross check with early exit on the first Eps-close pair.
          const bool linked = cluster::bcp_within_eps(
              leaf_a.end - leaf_a.begin, leaf_b.end - leaf_b.begin,
              [&](std::size_t i) -> const geom::Point& {
                return tree.point_at(tree.order()[leaf_a.begin + i]);
              },
              [&](std::size_t j) -> const geom::Point& {
                return tree.point_at(tree.order()[leaf_b.begin + j]);
              },
              eps2, ops);
          if (linked) {
            chains.unite(box_chain[a], box_chain[b]);
            ++collisions;
          }
        }
      }
    }
  }
  device.account_launch(block_ops);
}

/// Exact core classification of the points in `work`, kernels issued in
/// bulk, shared by both cluster paths. Each launch covers block_count x
/// points_per_block queries: the first points_per_block belong to block
/// 0, and so on, so the order of `work` fixes which block each query is
/// charged to. The seed for each block is a function of the kernel call
/// parameters, so no memory copies intervene, and each count stops as
/// soon as MinPts is seen (§3.2.2).
template <typename Engine>
void classify_core_points(Engine& engine, std::span<const std::uint32_t> work,
                          const MrScanGpuConfig& config,
                          std::vector<std::uint8_t>& core,
                          VirtualDevice& device) {
  const std::size_t min_pts = config.params.min_pts;
  const std::size_t wave_size =
      static_cast<std::size_t>(config.block_count) * config.points_per_block;
  std::vector<std::uint64_t> block_ops;
  for (std::size_t cursor = 0; cursor < work.size(); cursor += wave_size) {
    const auto wave =
        work.subspan(cursor, std::min(wave_size, work.size() - cursor));
    block_ops.assign(config.block_count, 0);
    engine.count_many(
        wave, config.params.eps, min_pts,
        [&](std::size_t q, std::size_t found, std::uint64_t charge) {
          block_ops[q / config.points_per_block] += charge;
          if (found >= min_pts) core[wave[q]] = 1;
        });
    device.account_launch(block_ops);
  }
}

/// Border pass, shared by both cluster paths and both backends: attach
/// every non-core point to a neighbouring core's cluster (lowest core
/// point *id* wins — a deterministic DBSCAN tie-break that is visit-order
/// independent, which is what makes the fused walk safe here, and
/// partition-invariant: leaf point arrays interleave owned and shadow
/// points in a partition-dependent order, but ids are global, so every
/// leaf that sees a border point's full Eps-neighbourhood resolves the
/// same anchor. The serving path (src/serve) relies on this to reproduce
/// batch labels without re-partitioning — DESIGN §14). One bulk-issued
/// kernel.
template <typename Engine>
void attach_border_points(Engine& engine,
                          std::span<const geom::Point> points, double eps,
                          std::uint32_t block_count,
                          const std::vector<std::uint8_t>& core,
                          std::vector<std::uint32_t>& chain,
                          VirtualDevice& device) {
  const auto n = static_cast<std::uint32_t>(core.size());
  std::vector<std::uint32_t> border;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!core[i]) border.push_back(i);
  }
  std::vector<std::uint64_t> block_ops(block_count, 0);
  std::vector<std::uint32_t> best(border.size(), kNoChain);
  engine.neighbors_many(
      border, eps,
      [&](std::size_t k, std::uint32_t q) {
        if (core[q] &&
            (best[k] == kNoChain || points[q].id < points[best[k]].id)) {
          best[k] = q;
        }
      },
      [&](std::size_t k, std::uint64_t charge) {
        // Round-robin block assignment, as the rr counter did.
        block_ops[k % block_count] += charge;
        if (best[k] != kNoChain) chain[border[k]] = chain[best[k]];
      });
  device.account_launch(block_ops);
}

/// Resolve per-point chain ids into cluster labels (the one D2H copy),
/// shared by both cluster paths. Labels number the chains' roots in order
/// of first appearance, as Labeling::renumber would; roots are chain ids,
/// so a dense table indexed by root replaces its hash map.
void resolve_labels(const std::vector<std::uint32_t>& chain,
                    cluster::UnionFind& chains, GpuDbscanResult& result,
                    VirtualDevice& device) {
  const auto n = static_cast<std::uint32_t>(chain.size());
  device.copy_to_host(n * kLabelBytes);
  std::vector<dbscan::ClusterId> label_of_root(chains.size(), dbscan::kNoise);
  dbscan::ClusterId next = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (chain[i] == kNoChain) {
      result.labels.cluster[i] = dbscan::kNoise;
      continue;
    }
    dbscan::ClusterId& label = label_of_root[chains.find(chain[i])];
    if (label == dbscan::kNoise) label = next++;
    result.labels.cluster[i] = label;
  }
  result.stats.chains = chains.size();
}

constexpr std::int32_t kRings = cluster::kCellGraphRings;
constexpr std::int32_t kRingSpan = 2 * kRings + 1;

/// Cell ordinals by offset (dx, dy) within kRings, at ring_slot(dx, dy).
using RingTable = std::array<std::size_t, kRingSpan * kRingSpan>;

constexpr std::size_t ring_slot(std::int32_t dx, std::int32_t dy) {
  return static_cast<std::size_t>((dy + kRings) * kRingSpan + dx + kRings);
}

/// Fill `ring` with the ordinals of the cells within kRings of cell `self`
/// that sort after it in code order; npos where that cell is empty or
/// sorts before `self`. The connect step reads them in its own (dy, dx)
/// order. Each column of the ring costs one or two binary searches and a
/// short walk, not one search per offset: a column's codes are
/// contiguous, but the rows iy - kRings .. iy + kRings form one ascending
/// run only while they do not cross iy = 0, since the code's low half is
/// the uint32 of iy and the negative rows sort after the others.
void forward_ring(std::span<const std::uint64_t> codes, std::size_t self,
                  RingTable& ring) {
  ring.fill(index::Grid::npos);
  const std::uint64_t own = codes[self];
  const geom::CellKey key = geom::cell_from_code(own);
  const auto begin = codes.begin();
  const auto after_self = begin + static_cast<std::ptrdiff_t>(self) + 1;
  auto from = after_self;
  // Rows key.iy + dy_lo .. key.iy + dy_hi of column ix, all on one side
  // of iy = 0, so their codes form one ascending run.
  const auto scan = [&](std::int32_t dx, std::int32_t dy_lo,
                        std::int32_t dy_hi) {
    const std::int32_t ix = key.ix + dx;
    const std::uint64_t hi = geom::cell_code({ix, key.iy + dy_hi});
    if (hi <= own) return;
    const std::uint64_t lo =
        std::max(geom::cell_code({ix, key.iy + dy_lo}), own + 1);
    // The previous run ended below this one unless the column index
    // wrapped at ix = 0; every run lies after `self`.
    if (*(from - 1) >= lo) from = after_self;
    auto it = std::lower_bound(from, codes.end(), lo);
    for (; it != codes.end() && *it <= hi; ++it) {
      const std::int32_t dy = geom::cell_from_code(*it).iy - key.iy;
      ring[ring_slot(dx, dy)] = static_cast<std::size_t>(it - begin);
    }
    from = it;
  };
  const bool crosses_zero = key.iy - kRings < 0 && key.iy + kRings >= 0;
  for (std::int32_t dx = -kRings; dx <= kRings; ++dx) {
    if (crosses_zero) {
      scan(dx, -key.iy, kRings);       // rows 0 .. iy + kRings
      scan(dx, -kRings, -key.iy - 1);  // rows iy - kRings .. -1
    } else {
      scan(dx, -kRings, kRings);
    }
  }
}

/// The cell-graph cluster path (DESIGN §12), after Wang/Gu/Shun's
/// theoretically-efficient parallel DBSCAN and ArborX's FDBSCAN: instead
/// of expanding core points one BFS wave at a time, cluster structure is
/// read off a grid of Eps/(2*sqrt(2)) cells —
///   1. a cell holding >= MinPts points is core wholesale (every pair of
///      its points is mutually within Eps: the cell diagonal is Eps/2),
///      strictly generalizing the dense-box rule; remaining points are
///      classified exactly with the same early-exiting bulk-issued
///      counting kernel as the two-pass path;
///   2. all core points of one cell union for free (one chain per cell);
///   3. cells whose boxes come within Eps (Chebyshev distance <= 3)
///      connect through a bichromatic closest-pair test over their core
///      points, early-exiting at the first pair within Eps.
/// Border points attach exactly as in the two-pass path, so the label
/// partition matches the oracle (the differential battery proves it).
/// Every distance computation is charged to the virtual device, and all
/// cell iteration is in ascending cell-code order — deterministic for
/// any host_threads (DESIGN §8).
template <typename Engine>
void cell_graph_dbscan(std::span<const geom::Point> points,
                       const MrScanGpuConfig& config, VirtualDevice& device,
                       Engine& engine, GpuDbscanResult& result) {
  const double eps = config.params.eps;
  const std::size_t min_pts = config.params.min_pts;
  const std::size_t n = points.size();

  // Cell binning: one O(n) kernel (one op per point, round-robin over
  // blocks) plus the O(cells) wholesale-core mark.
  const index::Grid grid(
      geom::GridGeometry{0.0, 0.0, cluster::cell_graph_side(eps)}, points);
  const auto codes = grid.codes();
  const std::size_t cell_count = grid.cell_count();
  {
    std::vector<std::uint64_t> block_ops(config.block_count, 0);
    for (std::uint32_t b = 0; b < config.block_count; ++b) {
      block_ops[b] = n / config.block_count +
                     (b < n % config.block_count ? 1 : 0);
    }
    device.account_launch(block_ops);
    device.account_launch({cell_count});
  }
  result.stats.cellgraph_cells = cell_count;

  // ---- Core classification. Cells with >= MinPts points are core
  // wholesale; everyone else gets the exact early-exiting count, issued
  // in the same waves as pass 1 of the two-pass path. The sparse work
  // list stays in ascending point order.
  for (std::size_t c = 0; c < cell_count; ++c) {
    const auto members = grid.members(c);
    if (members.size() < min_pts) continue;
    ++result.stats.cellgraph_core_cells;
    result.stats.cellgraph_wholesale_points += members.size();
    for (const std::uint32_t p : members) result.labels.core[p] = 1;
  }
  {
    std::vector<std::uint32_t> work;
    work.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!result.labels.core[i]) work.push_back(i);
    }
    classify_core_points(engine, work, config, result.labels.core, device);
  }

  // ---- Intra-cell unions: one chain per cell with core points; every
  // core point of the cell joins it for free (mutually within Eps).
  cluster::UnionFind chains;
  std::vector<std::uint32_t> chain(n, kNoChain);
  std::vector<std::uint32_t> cell_chain(cell_count, kNoChain);
  // Core members per cell (flattened, cell-code order) and the tight
  // bounding box of each cell's core points — the Eps prefilter for the
  // connection kernel below.
  std::vector<std::uint32_t> core_members;
  core_members.reserve(n);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> core_range(
      cell_count);
  std::vector<geom::BBox> core_bbox(cell_count);
  for (std::size_t c = 0; c < cell_count; ++c) {
    const auto begin = static_cast<std::uint32_t>(core_members.size());
    for (const std::uint32_t p : grid.members(c)) {
      if (!result.labels.core[p]) continue;
      core_members.push_back(p);
      core_bbox[c].expand(points[p]);
    }
    const auto end = static_cast<std::uint32_t>(core_members.size());
    core_range[c] = {begin, end};
    if (end == begin) continue;
    cell_chain[c] = chains.add();
    for (std::uint32_t i = begin; i < end; ++i) {
      chain[core_members[i]] = cell_chain[c];
    }
  }

  // ---- Cell-graph connection: bichromatic closest-pair tests between
  // neighbouring core-candidate cells, early-exiting at the first pair
  // within Eps. Each source cell's comparisons go to one block,
  // round-robin, exactly like connect_dense_boxes.
  {
    const double eps2 = eps * eps;
    std::vector<std::uint64_t> block_ops(config.block_count, 0);
    std::uint32_t active = 0;  // round-robin ordinal over core cells
    RingTable ring{};
    for (std::size_t ca = 0; ca < cell_count; ++ca) {
      if (cell_chain[ca] == kNoChain) continue;
      std::uint64_t& ops = block_ops[active % config.block_count];
      ++active;
      forward_ring(codes, ca, ring);
      for (std::int32_t dy = -kRings; dy <= kRings; ++dy) {
        for (std::int32_t dx = -kRings; dx <= kRings; ++dx) {
          // Each pair is tested once, from the cell that sorts first.
          const std::size_t cb = ring[ring_slot(dx, dy)];
          if (cb == index::Grid::npos || cell_chain[cb] == kNoChain) {
            continue;
          }
          if (chains.same(cell_chain[ca], cell_chain[cb])) continue;
          // Tight prefilter: the cells' core points cannot reach Eps.
          if (cluster::box_gap2(core_bbox[ca], core_bbox[cb]) > eps2) {
            continue;
          }
          ++result.stats.cellgraph_bcp_pairs;
          std::uint64_t pair_ops = 0;
          const bool linked = cluster::bcp_within_eps(
              core_range[ca].second - core_range[ca].first,
              core_range[cb].second - core_range[cb].first,
              [&](std::size_t i) -> const geom::Point& {
                return points[core_members[core_range[ca].first + i]];
              },
              [&](std::size_t j) -> const geom::Point& {
                return points[core_members[core_range[cb].first + j]];
              },
              eps2, pair_ops);
          ops += pair_ops;
          result.stats.cellgraph_bcp_ops += pair_ops;
          if (linked) {
            chains.unite(cell_chain[ca], cell_chain[cb]);
            ++result.stats.collisions;
          }
        }
      }
    }
    device.account_launch(block_ops);
  }

  attach_border_points(engine, points, eps, config.block_count,
                       result.labels.core, chain, device);
  resolve_labels(chain, chains, result, device);
}

/// The CUDA-DClust-style two-pass path (§3.2.2, §3.2.3): bulk-issued core
/// classification, then per-core-point BFS wave expansion with the dense
/// box elimination. Written once against the engine surface; on the BVH
/// backend every classification count and expansion query is a fused
/// traversal.
template <typename Tree, typename Engine>
void two_pass_dbscan(std::span<const geom::Point> points,
                     const MrScanGpuConfig& config, VirtualDevice& device,
                     const Tree& tree, Engine& engine,
                     GpuDbscanResult& result) {
  const std::size_t n = points.size();

  // Dense box detection: one O(leaves) kernel.
  DenseBoxes dense;
  if (config.dense_box) {
    dense = detect_dense_boxes(tree, config.params.eps,
                               config.params.min_pts);
    device.account_launch({tree.leaves().size()});
  } else {
    dense.box_of_point.assign(n, DenseBoxes::kNone);
  }
  result.stats.dense_boxes = dense.count();
  result.stats.dense_points = dense.covered_points;

  cluster::UnionFind chains;
  std::vector<std::uint32_t> chain(n, kNoChain);

  // Every dense box is a pre-formed chain; its points are core by
  // construction and are never expanded (§3.2.3).
  std::vector<std::uint32_t> box_chain(dense.count());
  for (std::uint32_t b = 0; b < dense.count(); ++b) {
    box_chain[b] = chains.add();
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (dense.is_dense(i)) {
      chain[i] = box_chain[dense.box_of_point[i]];
      result.labels.core[i] = 1;
    }
  }

  // ---- Pass 1: core classification of every non-dense point. ----
  {
    std::vector<std::uint32_t> work;
    work.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!dense.is_dense(i)) work.push_back(i);
    }
    classify_core_points(engine, work, config, result.labels.core, device);
  }

  // ---- Pass 2: expand core points with block chains + collisions. ----
  {
    std::vector<std::uint64_t> block_ops;
    std::vector<std::deque<std::uint32_t>> queues(config.block_count);
    std::uint32_t next_seed = 0;
    std::vector<std::uint32_t> wave_points;  // one queue front per block
    std::vector<std::uint32_t> wave_blocks;  // its owning block

    auto seed_idle_blocks = [&]() {
      bool any = false;
      for (auto& q : queues) {
        if (q.empty()) {
          while (next_seed < n &&
                 (!result.labels.core[next_seed] ||
                  chain[next_seed] != kNoChain)) {
            ++next_seed;
          }
          if (next_seed < n) {
            chain[next_seed] = chains.add();
            q.push_back(next_seed);
            ++next_seed;
          }
        }
        if (!q.empty()) any = true;
      }
      return any;
    };

    while (seed_idle_blocks()) {
      // One bulk-issued kernel wave: each block expands one core point.
      // No host copies between waves — that is the point of the redesign.
      // Queue fronts are popped before the batch runs; a block's expansion
      // only ever pushes to its own queue, so the wave composition and the
      // per-block processing order are identical to the per-block loop.
      block_ops.assign(config.block_count, 0);
      wave_points.clear();
      wave_blocks.clear();
      for (std::uint32_t b = 0; b < config.block_count; ++b) {
        if (queues[b].empty()) continue;
        wave_points.push_back(queues[b].front());
        queues[b].pop_front();
        wave_blocks.push_back(b);
      }
      engine.neighbors_many(
          wave_points, config.params.eps,
          [&](std::size_t k, std::uint32_t q) {
            const std::uint32_t p = wave_points[k];
            if (q == p || !result.labels.core[q]) return;
            const std::uint32_t c = chain[p];
            if (chain[q] == kNoChain) {
              chain[q] = c;
              queues[wave_blocks[k]].push_back(q);
            } else if (!chains.same(c, chain[q])) {
              chains.unite(c, chain[q]);
              ++result.stats.collisions;
            }
          },
          [&](std::size_t k, std::uint64_t charge) {
            block_ops[wave_blocks[k]] += charge;
          });
      device.account_launch(block_ops);
    }
  }

  // Dense boxes adjacent to each other merge even though none of their
  // points ran an expansion.
  if (dense.count() >= 2) {
    connect_dense_boxes(tree, dense, config.params.eps, config.block_count,
                        box_chain, chains, result.stats.collisions, device);
  }

  attach_border_points(engine, points, config.params.eps,
                       config.block_count, result.labels.core, chain,
                       device);
  resolve_labels(chain, chains, result, device);
}

template <typename Tree, typename Engine>
void run_cluster(std::span<const geom::Point> points,
                 const MrScanGpuConfig& config, VirtualDevice& device,
                 const Tree& tree, Engine& engine, GpuDbscanResult& result) {
  if (config.cluster_algo == cluster::ClusterAlgo::kCellGraph) {
    cell_graph_dbscan(points, config, device, engine, result);
  } else {
    two_pass_dbscan(points, config, device, tree, engine, result);
  }
  result.stats.bvh_node_steps = engine.node_steps;
}

}  // namespace

GpuDbscanResult mrscan_gpu_dbscan(std::span<const geom::Point> points,
                                  const MrScanGpuConfig& config,
                                  VirtualDevice& device) {
  MRSCAN_REQUIRE(config.params.eps > 0.0);
  MRSCAN_REQUIRE(config.params.min_pts >= 1);
  MRSCAN_REQUIRE(config.block_count >= 1);
  MRSCAN_REQUIRE(config.points_per_block >= 1);

  const std::size_t n = points.size();
  GpuDbscanResult result;
  result.labels.cluster.assign(n, dbscan::kNoise);
  result.labels.core.assign(n, 0);
  DeviceStatsDelta delta(device);
  if (n == 0) {
    delta.fill(result.stats);
    return result;
  }

  // One scratch for the whole clustering: this function runs single-
  // threaded within its leaf task, so every pass reuses the same traversal
  // stack and result buffer — zero allocations once warm (DESIGN §10).
  index::QueryScratch scratch;

  // In dense areas both trees bottom out at dense-box-sized leaves, which
  // is what lets the dense-box detector read its partition off either.
  const double leaf_extent =
      config.dense_box ? dense_box_side(config.params.eps) : 0.0;

  // One H2D copy per backend: raw input points plus the traversal tree.
  if (config.index_backend == index::Backend::kBvh) {
    index::BVH tree(points,
                    index::BVHConfig{config.max_leaf_points, leaf_extent});
    device.copy_to_device(n * kPointBytes +
                          tree.node_count() * kBvhNodeBytes);
    BvhEngine engine{tree, scratch};
    run_cluster(points, config, device, tree, engine, result);
  } else {
    index::KDTree tree(
        points, index::KDTreeConfig{config.max_leaf_points, leaf_extent});
    device.copy_to_device(n * kPointBytes +
                          tree.node_count() * kTreeNodeBytes);
    KdTreeEngine engine{tree, scratch};
    run_cluster(points, config, device, tree, engine, result);
  }
  delta.fill(result.stats);
  return result;
}

}  // namespace mrscan::gpu
