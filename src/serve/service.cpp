#include "serve/service.hpp"

#include <algorithm>
#include <bit>

#include "cluster/cell_graph_ops.hpp"
#include "obs/names.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace mrscan::serve {

namespace {

namespace names = obs::names;

// CellState::flags: which of the epoch's working sets a cell is in.
constexpr std::uint8_t kDirty = 1;       // touched by a mutation
constexpr std::uint8_t kLostCore = 2;    // a core member was removed
constexpr std::uint8_t kAffected = 4;    // core flags recomputed
constexpr std::uint8_t kAnchored = 8;    // border anchors recomputed
constexpr std::uint8_t kChanged = 16;    // core membership changed
constexpr std::uint8_t kVisited = 32;    // component re-derived

constexpr std::uint64_t ring_bit(int k) { return std::uint64_t{1} << k; }

/// fn(k) for every set bit k of `mask`, ascending.
template <typename Fn>
void for_each_bit(std::uint64_t mask, Fn&& fn) {
  while (mask != 0) {
    fn(std::countr_zero(mask));
    mask &= mask - 1;
  }
}

}  // namespace

std::optional<dbscan::ClusterId> EpochSnapshot::label_of(
    geom::PointId id) const {
  const auto it = std::lower_bound(
      points.begin(), points.end(), id,
      [](const geom::Point& p, geom::PointId v) { return p.id < v; });
  if (it == points.end() || it->id != id) return std::nullopt;
  return labels[static_cast<std::size_t>(it - points.begin())];
}

ClusterService::ClusterService(ServeConfig config)
    : config_(std::move(config)),
      eps2_(config_.params.eps * config_.params.eps),
      injector_(config_.fault_plan),
      pool_(config_.host_threads),
      grid_(cluster::cell_graph_side(config_.params.eps)) {
  MRSCAN_REQUIRE(config_.params.eps > 0.0);
  MRSCAN_REQUIRE(config_.params.min_pts >= 1);
  // Every serve.* counter exists from the first snapshot on (the "created
  // at zero" idiom), so metric consumers never see a partial table.
  registry_.add(names::kServeEpochs, 0);
  registry_.add(names::kServeInserts, 0);
  registry_.add(names::kServeRemoves, 0);
  registry_.add(names::kServeRejected, 0);
  registry_.add(names::kServeReclusterPoints, 0);
  registry_.add(names::kServeDistanceOps, 0);
  registry_.add(names::kServeEdgeTests, 0);
  registry_.add(names::kServeQueries, 0);
  registry_.add(names::kServeRetries, 0);
  registry_.add(names::kServeFaultAborts, 0);
  registry_.set(names::kServePoints, 0.0);
  registry_.set(names::kServeCells, 0.0);
  registry_.set(names::kServeClusters, 0.0);
  registry_.set(names::kServeSimSeconds, 0.0);
  // Epoch 0: the empty clustering, published so queries are well-defined
  // before any mutation arrives.
  publish(std::make_shared<const EpochSnapshot>());
}

ClusterService::~ClusterService() = default;

void ClusterService::insert(const geom::Point& point) {
  pending_.push_back(Mutation{Mutation::Kind::kInsert, point});
}

void ClusterService::remove(geom::PointId id) {
  geom::Point key;
  key.id = id;
  pending_.push_back(Mutation{Mutation::Kind::kRemove, key});
}

EpochResult ClusterService::bootstrap(std::span<const geom::Point> points) {
  for (const geom::Point& p : points) insert(p);
  return advance_epoch();
}

EpochResult ClusterService::advance_epoch() {
  util::Timer timer;
  EpochResult result;
  EpochStats& stats = result.stats;
  const std::uint64_t e = epoch_ + 1;
  stats.epoch = e;

  // ---- Fault gate: the epoch's publish link. Epoch e plays node e in
  // the fault plan; each drop costs an ack timeout + exponential backoff
  // on the virtual clock, and exhausting the retry budget fails the
  // epoch cleanly — the previous snapshot stays current and the pending
  // mutations are retried by the next advance_epoch().
  double fault_delay_s = 0.0;
  if (injector_.active()) {
    const auto node = static_cast<std::uint32_t>(e);
    std::uint32_t attempt = 0;
    while (injector_.should_drop(node, attempt)) {
      fault_delay_s += injector_.retry().ack_timeout_s +
                       injector_.retry().backoff_seconds(attempt);
      ++stats.retries;
      ++attempt;
      if (attempt >= injector_.retry().max_attempts) {
        registry_.add(names::kServeRetries, stats.retries);
        registry_.add(names::kServeFaultAborts);
        result.ok = false;
        result.error = "epoch " + std::to_string(e) +
                       ": publish retry budget exhausted";
        return result;
      }
    }
  }

  // ---- Apply pending mutations; every touched cell is dirty.
  std::vector<std::uint32_t> dirty;
  std::vector<std::uint32_t> inserted;
  std::vector<std::uint32_t> removed;
  apply_mutations(stats, dirty, inserted, removed);
  stats.dirty_cells = dirty.size();

  // ---- Invalidation region. Core status can only flip for points within
  // Eps of a mutation; with cells of side Eps/(2*sqrt(2)) those points
  // live within Chebyshev distance kCellGraphRings of a dirty cell
  // (DESIGN §12's reachability bound), so `affected` is a complete core
  // recompute set.
  std::vector<std::uint32_t> affected;
  for (const std::uint32_t cell : dirty) {
    collect_ring(cell, kAffected, affected);
  }

  std::vector<ChangedCell> changed;
  stats.distance_ops += classify_core_cells(affected, changed);

  // A dirty cell that emptied while holding core points: its former core
  // members are gone, which is a core-membership change like any other.
  for (const std::uint32_t cell : dirty) {
    CellState& st = cell_state_[cell];
    if (!grid_.members(cell).empty() || st.core_count == 0) continue;
    changed.push_back(ChangedCell{cell, true, st.linked});
    st.core_count = 0;
    st.flags |= kChanged;
  }

  // ---- Cell graph: a link is a function of the two cells' core-member
  // sets, so only links incident to a changed cell are re-tested, and
  // only components whose links changed are re-derived.
  stats.distance_ops += relink(changed, stats.edge_tests);
  recompute_components(changed);

  // ---- Border anchors. An anchor (lowest-id core point within Eps) can
  // only change when a core-membership change happens within Eps, i.e.
  // for border points within ring-3 of a changed cell — plus the affected
  // cells themselves, whose own members (re-)classified.
  std::vector<std::uint32_t> anchored = affected;
  for (const std::uint32_t cell : affected) {
    cell_state_[cell].flags |= kAnchored;
  }
  for (const ChangedCell& c : changed) {
    collect_ring(c.cell, kAnchored, anchored);
  }
  // Re-clustered points: the epoch's distance-level footprint — every
  // member of a core-recompute cell plus every border point whose anchor
  // was redone outside those cells.
  for (std::size_t i = 0; i < anchored.size(); ++i) {
    for (const auto& member : grid_.members(anchored[i])) {
      if (i < affected.size() || !slots_[member.slot].core) {
        ++stats.recluster_points;
      }
    }
  }
  stats.distance_ops += recompute_anchors(anchored);

  // ---- End of the epoch's working sets: clear their marks, drop the
  // BCP core lists, and release the cells that emptied.
  for (const std::uint32_t cell : anchored) cell_state_[cell].flags = 0;
  for (const ChangedCell& c : changed) cell_state_[c.cell].flags = 0;
  for (const CoreList& list : core_lists_) {
    cell_state_[list.cell].core_list = kNone;
  }
  core_lists_.clear();
  core_points_.clear();
  for (const std::uint32_t cell : dirty) {
    cell_state_[cell].flags = 0;
    if (grid_.members(cell).empty()) {
      MRSCAN_ASSERT(cell_state_[cell].comp == kNone);
      cell_state_[cell] = CellState{};
      grid_.release(cell);
    }
  }

  // ---- Labels: the O(live) snapshot pass.
  std::shared_ptr<EpochSnapshot> snapshot = materialize(stats, inserted);
  free_slots_.insert(free_slots_.end(), removed.begin(), removed.end());

  stats.wall_seconds = timer.seconds();
  stats.sim_seconds =
      (static_cast<double>(stats.distance_ops) / config_.titan.cpu_op_rate +
       fault_delay_s) *
      injector_.slow_factor(static_cast<std::uint32_t>(e));
  sim_seconds_total_ += stats.sim_seconds;
  epoch_ = e;

  // Mirror the epoch into the serve.* series.
  registry_.add(names::kServeEpochs);
  registry_.add(names::kServeInserts, stats.inserts);
  registry_.add(names::kServeRemoves, stats.removes);
  registry_.add(names::kServeRejected, stats.rejected);
  registry_.add(names::kServeReclusterPoints, stats.recluster_points);
  registry_.add(names::kServeDistanceOps, stats.distance_ops);
  registry_.add(names::kServeEdgeTests, stats.edge_tests);
  registry_.add(names::kServeRetries, stats.retries);
  registry_.observe(names::kServeEpochDirtyCells,
                    static_cast<double>(stats.dirty_cells));
  registry_.observe(names::kServeEpochReclusterPoints,
                    static_cast<double>(stats.recluster_points));
  registry_.observe(names::kServeEpochSeconds, stats.wall_seconds);
  registry_.set(names::kServePoints, static_cast<double>(index_.size()));
  registry_.set(names::kServeCells,
                static_cast<double>(grid_.cell_count()));
  registry_.set(names::kServeClusters,
                static_cast<double>(snapshot->clusters.size()));
  registry_.set(names::kServeSimSeconds, sim_seconds_total_);

  publish(std::move(snapshot));
  return result;
}

void ClusterService::apply_mutations(EpochStats& stats,
                                     std::vector<std::uint32_t>& dirty,
                                     std::vector<std::uint32_t>& inserted,
                                     std::vector<std::uint32_t>& removed) {
  auto mark_dirty = [&](std::uint32_t cell) {
    if (cell >= cell_state_.size()) cell_state_.resize(grid_.table_size());
    CellState& st = cell_state_[cell];
    if ((st.flags & kDirty) == 0) {
      st.flags |= kDirty;
      dirty.push_back(cell);
    }
  };
  std::vector<Mutation> batch;
  batch.swap(pending_);
  for (const Mutation& m : batch) {
    if (m.kind == Mutation::Kind::kInsert) {
      const auto code = grid_.code_of(m.point);
      if (!code || index_.contains(m.point.id)) {
        ++stats.rejected;
        continue;
      }
      // Slots freed this epoch are recycled only after the snapshot pass
      // has dropped them from order_.
      std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
      if (free_slots_.empty()) {
        slots_.emplace_back();
      } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
      }
      PointRec& rec = slots_[slot];
      rec = PointRec{};
      rec.point = m.point;
      rec.cell = grid_.insert(*code, m.point.id, slot);
      index_.emplace(m.point.id, slot);
      mark_dirty(rec.cell);
      inserted.push_back(slot);
      ++stats.inserts;
    } else {
      const auto it = index_.find(m.point.id);
      if (it == index_.end()) {
        ++stats.rejected;
        continue;
      }
      const std::uint32_t slot = it->second;
      PointRec& rec = slots_[slot];
      mark_dirty(rec.cell);
      if (rec.core) cell_state_[rec.cell].flags |= kLostCore;
      grid_.remove(rec.cell, m.point.id);
      index_.erase(it);
      rec.cell = kNone;
      removed.push_back(slot);
      ++stats.removes;
    }
  }
}

void ClusterService::collect_ring(std::uint32_t cell, std::uint8_t flag,
                                  std::vector<std::uint32_t>& out) {
  auto visit = [&](std::uint32_t c) {
    if (c == kNone || grid_.members(c).empty()) return;
    CellState& st = cell_state_[c];
    if ((st.flags & flag) != 0) return;
    st.flags |= flag;
    out.push_back(c);
  };
  visit(cell);
  for (int k = 0; k < cluster::kRingCells; ++k) visit(grid_.neighbor(cell, k));
}

ClusterService::RingScan ClusterService::ring_scan(std::uint32_t cell) const {
  RingScan scan;
  scan.cells[scan.size++] = cell;
  for (int k = 0; k < cluster::kRingCells; ++k) {
    const std::uint32_t n = grid_.neighbor(cell, k);
    if (n != kNone && !grid_.members(n).empty()) scan.cells[scan.size++] = n;
  }
  return scan;
}

std::uint64_t ClusterService::classify_core_cells(
    const std::vector<std::uint32_t>& cells,
    std::vector<ChangedCell>& changed) {
  const std::size_t min_pts = config_.params.min_pts;
  std::vector<std::uint64_t> cell_ops(cells.size(), 0);
  std::vector<std::uint32_t> core_counts(cells.size(), 0);
  std::vector<std::uint8_t> flipped(cells.size(), 0);

  // One task per cell: a worker writes only its own cell's members' core
  // flags and its own result slots, and reads only point coordinates —
  // the determinism contract's disjoint-writes discipline (DESIGN §8).
  pool_.parallel_for(0, cells.size(), [&](std::size_t ci) {
    const auto members = grid_.members(cells[ci]);
    bool flip = false;
    if (members.size() >= min_pts) {
      // Wholesale rule: the cell diagonal is Eps/2, so all members are
      // mutually within Eps — core without a single distance test.
      for (const auto& member : members) {
        PointRec& rec = slots_[member.slot];
        flip = flip || !rec.core;
        rec.core = true;
      }
      core_counts[ci] = static_cast<std::uint32_t>(members.size());
      flipped[ci] = flip ? 1 : 0;
      return;
    }
    // Exact early-exit count over the ring-3 neighbourhood (self first —
    // dist 0 counts the point itself, matching DbscanParams' inclusive
    // MinPts).
    const RingScan scan = ring_scan(cells[ci]);
    std::uint64_t ops = 0;
    std::uint32_t cores = 0;
    for (const auto& member : members) {
      PointRec& rec = slots_[member.slot];
      std::size_t found = 0;
      for (std::size_t s = 0; s < scan.size && found < min_pts; ++s) {
        for (const auto& candidate : grid_.members(scan.cells[s])) {
          ++ops;
          if (geom::dist2(rec.point, slots_[candidate.slot].point) <= eps2_) {
            if (++found >= min_pts) break;
          }
        }
      }
      const bool core = found >= min_pts;
      flip = flip || core != rec.core;
      rec.core = core;
      if (core) ++cores;
    }
    cell_ops[ci] = ops;
    core_counts[ci] = cores;
    flipped[ci] = flip ? 1 : 0;
  });

  // Post-barrier: op totals and core-membership changes. A cell changed
  // when a member's core flag flipped (a new member turning core counts)
  // or a core member was removed — exactly when its set of core points,
  // coordinates included, may differ from the last epoch's.
  std::uint64_t total_ops = 0;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    total_ops += cell_ops[ci];
    CellState& st = cell_state_[cells[ci]];
    if (flipped[ci] != 0 || (st.flags & kLostCore) != 0) {
      changed.push_back(ChangedCell{cells[ci], st.core_count > 0, st.linked});
      st.flags |= kChanged;
    }
    st.core_count = core_counts[ci];
  }
  return total_ops;
}

std::uint64_t ClusterService::relink(const std::vector<ChangedCell>& changed,
                                     std::uint64_t& edge_tests) {
  // Drop every link incident to a changed cell, on both endpoints.
  for (const ChangedCell& c : changed) {
    for_each_bit(c.old_linked, [&](int k) {
      const std::uint32_t n = grid_.neighbor(c.cell, k);
      MRSCAN_ASSERT(n != kNone);
      cell_state_[n].linked &= ~ring_bit(cluster::ring_mirror(k));
    });
    cell_state_[c.cell].linked = 0;
  }
  // Re-test each pair of ring-3 neighbouring core cells with a changed
  // endpoint, once: a pair of two changed cells is tested from its
  // lower-code side.
  std::uint64_t ops = 0;
  for (const ChangedCell& c : changed) {
    if (cell_state_[c.cell].core_count == 0) continue;
    const std::uint64_t code = grid_.code(c.cell);
    for (int k = 0; k < cluster::kRingCells; ++k) {
      const std::uint32_t n = grid_.neighbor(c.cell, k);
      if (n == kNone || cell_state_[n].core_count == 0) continue;
      const std::uint64_t ncode = grid_.code(n);
      if ((cell_state_[n].flags & kChanged) != 0 && ncode < code) continue;
      // BCP runs lower-code cell first: its op count depends on the
      // orientation, and the cost model charges this one.
      const bool linked = code < ncode ? bcp_linked(c.cell, n, ops)
                                       : bcp_linked(n, c.cell, ops);
      ++edge_tests;
      if (linked) {
        cell_state_[c.cell].linked |= ring_bit(k);
        cell_state_[n].linked |= ring_bit(cluster::ring_mirror(k));
      }
    }
  }
  return ops;
}

bool ClusterService::bcp_linked(std::uint32_t a, std::uint32_t b,
                                std::uint64_t& ops) {
  // Both lists first: building one may reallocate core_lists_.
  const std::uint32_t ia = core_list(a);
  const std::uint32_t ib = core_list(b);
  const CoreList& la = core_lists_[ia];
  const CoreList& lb = core_lists_[ib];
  // The core-bbox Eps prefilter, then the shared cluster::bcp_within_eps
  // kernel the batch path runs.
  if (cluster::box_gap2(la.bbox, lb.bbox) > eps2_) return false;
  return cluster::bcp_within_eps(
      la.end - la.begin, lb.end - lb.begin,
      [&](std::size_t i) -> const geom::Point& {
        return core_points_[la.begin + i];
      },
      [&](std::size_t j) -> const geom::Point& {
        return core_points_[lb.begin + j];
      },
      eps2_, ops);
}

std::uint32_t ClusterService::core_list(std::uint32_t cell) {
  CellState& st = cell_state_[cell];
  if (st.core_list == kNone) {
    CoreList list;
    list.cell = cell;
    list.begin = static_cast<std::uint32_t>(core_points_.size());
    for (const auto& member : grid_.members(cell)) {
      const PointRec& rec = slots_[member.slot];
      if (!rec.core) continue;
      core_points_.push_back(rec.point);
      list.bbox.expand(rec.point);
    }
    list.end = static_cast<std::uint32_t>(core_points_.size());
    st.core_list = static_cast<std::uint32_t>(core_lists_.size());
    core_lists_.push_back(list);
  }
  return st.core_list;
}

void ClusterService::recompute_components(
    const std::vector<ChangedCell>& changed) {
  // Seeds: every core cell with a link added or removed, and every cell
  // that turned core. A component none of whose cells is a seed kept all
  // of its cells and links, so its id stays valid (DESIGN §14).
  std::vector<std::uint32_t> seeds;
  for (const ChangedCell& c : changed) {
    CellState& st = cell_state_[c.cell];
    const bool core = st.core_count > 0;
    if (c.was_core && !core) {
      release_component(st.comp);
      st.comp = kNone;
    }
    if (core && (!c.was_core || st.linked != c.old_linked)) {
      seeds.push_back(c.cell);
    }
    for_each_bit(st.linked ^ c.old_linked, [&](int k) {
      const std::uint32_t n = grid_.neighbor(c.cell, k);
      if (n != kNone && cell_state_[n].core_count > 0) seeds.push_back(n);
    });
  }

  // Flood each seed's component over the link masks under a fresh id.
  std::vector<std::uint32_t> visited;
  std::vector<std::uint32_t> stack;
  for (const std::uint32_t seed : seeds) {
    if ((cell_state_[seed].flags & kVisited) != 0) continue;
    std::uint32_t comp = static_cast<std::uint32_t>(comp_cells_.size());
    if (free_comps_.empty()) {
      comp_cells_.push_back(0);
    } else {
      comp = free_comps_.back();
      free_comps_.pop_back();
    }
    cell_state_[seed].flags |= kVisited;
    stack.push_back(seed);
    while (!stack.empty()) {
      const std::uint32_t cell = stack.back();
      stack.pop_back();
      visited.push_back(cell);
      CellState& st = cell_state_[cell];
      if (st.comp != kNone) release_component(st.comp);
      st.comp = comp;
      ++comp_cells_[comp];
      for_each_bit(st.linked, [&](int k) {
        const std::uint32_t n = grid_.neighbor(cell, k);
        MRSCAN_ASSERT(n != kNone);
        if ((cell_state_[n].flags & kVisited) != 0) return;
        cell_state_[n].flags |= kVisited;
        stack.push_back(n);
      });
    }
  }
  for (const std::uint32_t cell : visited) {
    cell_state_[cell].flags &= static_cast<std::uint8_t>(~kVisited);
  }
}

void ClusterService::release_component(std::uint32_t comp) {
  MRSCAN_ASSERT(comp_cells_[comp] > 0);
  if (--comp_cells_[comp] == 0) free_comps_.push_back(comp);
}

std::uint64_t ClusterService::recompute_anchors(
    const std::vector<std::uint32_t>& cells) {
  std::vector<std::uint64_t> cell_ops(cells.size(), 0);

  pool_.parallel_for(0, cells.size(), [&](std::size_t ci) {
    const auto members = grid_.members(cells[ci]);
    bool any_border = false;
    for (const auto& member : members) {
      if (!slots_[member.slot].core) any_border = true;
    }
    if (!any_border) return;
    const RingScan scan = ring_scan(cells[ci]);
    std::uint64_t ops = 0;
    for (const auto& member : members) {
      PointRec& rec = slots_[member.slot];
      if (rec.core) continue;
      geom::PointId best = 0;
      std::uint32_t best_cell = kNone;
      for (std::size_t s = 0; s < scan.size; ++s) {
        // Members are ascending by id, so within one cell the first core
        // point inside Eps is that cell's lowest-id candidate — scan the
        // rest of the cell only while no hit has been found.
        for (const auto& candidate : grid_.members(scan.cells[s])) {
          const PointRec& cand = slots_[candidate.slot];
          if (!cand.core) continue;
          if (best_cell != kNone && candidate.id >= best) break;
          ++ops;
          if (geom::dist2(rec.point, cand.point) <= eps2_) {
            best = candidate.id;
            best_cell = scan.cells[s];
            break;
          }
        }
      }
      rec.anchor = best_cell;
    }
    cell_ops[ci] = ops;
  });

  std::uint64_t total_ops = 0;
  for (const std::uint64_t ops : cell_ops) total_ops += ops;
  return total_ops;
}

std::shared_ptr<EpochSnapshot> ClusterService::materialize(
    EpochStats& stats, std::vector<std::uint32_t>& inserted) {
  // Slots are in insertion order, not id order, so the id-ordered walks
  // over slots_ miss the cache; prefetching a few records ahead overlaps
  // the misses.
  constexpr std::size_t kPrefetchAhead = 16;
  auto prefetch = [&](const std::vector<std::uint32_t>& order,
                      std::size_t i) {
    if (i + kPrefetchAhead < order.size()) {
      __builtin_prefetch(&slots_[order[i + kPrefetchAhead]]);
    }
  };

  // The new order_: the old one without this epoch's removed slots
  // (cell == kNone), merged with its surviving inserts sorted by id.
  std::erase_if(inserted,
                [&](std::uint32_t slot) { return slots_[slot].cell == kNone; });
  std::sort(inserted.begin(), inserted.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return slots_[a].point.id < slots_[b].point.id;
            });
  const std::size_t live = index_.size();
  std::vector<std::uint32_t> order;
  order.reserve(live);
  std::size_t next_insert = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    prefetch(order_, i);
    const PointRec& rec = slots_[order_[i]];
    if (rec.cell == kNone) continue;
    while (next_insert < inserted.size() &&
           slots_[inserted[next_insert]].point.id < rec.point.id) {
      order.push_back(inserted[next_insert++]);
    }
    order.push_back(order_[i]);
  }
  order.insert(order.end(),
               inserted.begin() + static_cast<std::ptrdiff_t>(next_insert),
               inserted.end());
  MRSCAN_ASSERT(order.size() == live);
  order_.swap(order);

  // Labels: components numbered by first appearance in id order (noise =
  // -1) — one contiguous O(live) pass, no distance work.
  auto snapshot = std::make_shared<EpochSnapshot>();
  snapshot->epoch = stats.epoch;
  auto& points = snapshot->points;
  auto& labels = snapshot->labels;
  auto& core = snapshot->core;
  points.resize(live);
  labels.resize(live);
  core.resize(live);
  std::vector<dbscan::ClusterId> canonical(comp_cells_.size(), dbscan::kNoise);
  dbscan::ClusterId next_label = 0;
  for (std::size_t i = 0; i < live; ++i) {
    prefetch(order_, i);
    const PointRec& rec = slots_[order_[i]];
    const std::uint32_t label_cell = rec.core ? rec.cell : rec.anchor;
    dbscan::ClusterId label = dbscan::kNoise;
    if (label_cell != kNone) {
      const std::uint32_t comp = cell_state_[label_cell].comp;
      MRSCAN_ASSERT(comp != kNone);
      if (canonical[comp] == dbscan::kNoise) canonical[comp] = next_label++;
      label = canonical[comp];
    }
    points[i] = rec.point;
    labels[i] = label;
    core[i] = rec.core ? 1 : 0;
  }

  // Per-cluster aggregates.
  snapshot->clusters.resize(static_cast<std::size_t>(next_label));
  for (std::size_t i = 0; i < live; ++i) {
    if (labels[i] == dbscan::kNoise) continue;
    ClusterStats& cs = snapshot->clusters[static_cast<std::size_t>(labels[i])];
    ++cs.size;
    cs.core_points += core[i];
    cs.weight += points[i].weight;
    cs.bbox.expand(points[i]);
  }
  stats.live_points = live;
  stats.clusters = snapshot->clusters.size();
  return snapshot;
}

void ClusterService::publish(
    std::shared_ptr<const EpochSnapshot> snapshot) {
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    current_.swap(snapshot);
  }
  // `snapshot` now holds the retired epoch. Dropping it here, outside the
  // lock, frees it unless a reader still holds it.
}

std::shared_ptr<const EpochSnapshot> ClusterService::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return current_;
}

std::optional<dbscan::ClusterId> ClusterService::label_of(
    geom::PointId id) const {
  util::Timer timer;
  const auto current = snapshot();
  const auto label = current->label_of(id);
  registry_.add(names::kServeQueries);
  registry_.observe(names::kServeQuerySeconds, timer.seconds());
  return label;
}

std::optional<ClusterStats> ClusterService::cluster_stats(
    dbscan::ClusterId cluster) const {
  util::Timer timer;
  const auto current = snapshot();
  std::optional<ClusterStats> stats;
  if (cluster >= 0 &&
      static_cast<std::size_t>(cluster) < current->clusters.size()) {
    stats = current->clusters[static_cast<std::size_t>(cluster)];
  }
  registry_.add(names::kServeQueries);
  registry_.observe(names::kServeQuerySeconds, timer.seconds());
  return stats;
}

std::uint64_t ClusterService::epoch() const { return epoch_; }

std::size_t ClusterService::live_points() const { return index_.size(); }

std::size_t ClusterService::pending_mutations() const {
  return pending_.size();
}

}  // namespace mrscan::serve
