#include "core/incremental.hpp"

#include <algorithm>

#include "geom/distance.hpp"
#include "util/flat_hash.hpp"
#include "util/fnv.hpp"

namespace sdb::dbscan {

IncrementalDbscan::IncrementalDbscan(Config config, int dim)
    : config_(std::move(config)), points_(dim) {
  SDB_CHECK(config_.params.minpts >= 1, "minpts must be >= 1");
}

void IncrementalDbscan::neighbors_of(std::span<const double> q,
                                     std::vector<PointId>& out) const {
  if (tree_ != nullptr) {
    tree_->range_query(q, config_.params.eps, out);
  }
  // Overflow buffer: brute-force scan of the rows added since the last
  // rebuild.
  const double eps2 = config_.params.eps * config_.params.eps;
  for (PointId i = static_cast<PointId>(tree_size_);
       i < static_cast<PointId>(points_.size()); ++i) {
    if (squared_distance(q, points_[i]) <= eps2) out.push_back(i);
  }
  // Filter tombstones (the tree still indexes them).
  std::erase_if(out, [this](PointId row) {
    return removed_[static_cast<size_t>(row)] != 0;
  });
}

size_t IncrementalDbscan::find_slot(size_t slot) const {
  while (slot_parent_[slot] != slot) {
    slot_parent_[slot] = slot_parent_[slot_parent_[slot]];
    slot = slot_parent_[slot];
  }
  return slot;
}

void IncrementalDbscan::unite_slots(size_t a, size_t b) {
  a = find_slot(a);
  b = find_slot(b);
  if (a == b) return;
  slot_parent_[b] = a;
  ++merges_;
}

size_t IncrementalDbscan::new_slot() {
  slot_parent_.push_back(slot_parent_.size());
  return slot_parent_.size() - 1;
}

bool IncrementalDbscan::is_removed(PointId id) const {
  SDB_CHECK(id >= 0 && static_cast<u64>(id) < next_id_,
            "is_removed: id never issued");
  return row_of(id) == kInvalidRow;
}

PointId IncrementalDbscan::insert(std::span<const double> coords) {
  const auto id = static_cast<PointId>(next_id_++);
  insert_row(id, coords);
  maybe_rebuild_after_insert();
  return id;
}

void IncrementalDbscan::restore(PointId id, std::span<const double> coords) {
  SDB_CHECK(id >= 0 && static_cast<u64>(id) >= next_id_,
            "restore: ids must arrive in increasing order");
  next_id_ = static_cast<u64>(id) + 1;
  insert_row(id, coords);
  maybe_rebuild_after_insert();
}

void IncrementalDbscan::insert_row(PointId external_id,
                                   std::span<const double> coords) {
  const PointId p = points_.add(coords);  // row index
  external_of_.push_back(external_id);
  internal_of_.emplace(external_id, static_cast<u32>(p));
  core_.push_back(0);
  slot_of_.push_back(kNone);
  count_.push_back(0);
  removed_.push_back(0);

  // Neighbors of p among all previous points plus p itself.
  std::vector<PointId> neighbors;
  neighbors_of(coords, neighbors);
  // points_ already contains p, and p is in the overflow range, so the scan
  // included it; count_ is self-inclusive by construction.
  count_[static_cast<size_t>(p)] = neighbors.size();

  // Every neighbor's count grows by one; collect the points that just
  // crossed the core threshold.
  std::vector<PointId> new_cores;
  for (const PointId q : neighbors) {
    if (q == p) continue;
    ++count_[static_cast<size_t>(q)];
    if (!core_[static_cast<size_t>(q)] &&
        count_[static_cast<size_t>(q)] >=
            static_cast<u64>(config_.params.minpts)) {
      core_[static_cast<size_t>(q)] = 1;
      new_cores.push_back(q);
    }
  }
  if (count_[static_cast<size_t>(p)] >=
      static_cast<u64>(config_.params.minpts)) {
    core_[static_cast<size_t>(p)] = 1;
    new_cores.push_back(p);
  }

  if (new_cores.empty()) {
    // p itself may still be a border point of an adjacent core's cluster.
    for (const PointId q : neighbors) {
      if (q != p && core_[static_cast<size_t>(q)]) {
        slot_of_[static_cast<size_t>(p)] =
            static_cast<i64>(find_slot(static_cast<size_t>(
                slot_of_[static_cast<size_t>(q)])));
        break;
      }
    }
    return;
  }

  // Each new core anchors its own cluster slot; clusters merge ONLY through
  // core-core adjacency. (Two new cores linked only via the non-core point
  // p must NOT fuse — non-core points never chain clusters in DBSCAN.)
  for (const PointId q : new_cores) {
    if (slot_of_[static_cast<size_t>(q)] == kNone) {
      slot_of_[static_cast<size_t>(q)] = static_cast<i64>(new_slot());
    }
  }

  std::vector<PointId> q_neighbors;
  for (const PointId q : new_cores) {
    const auto q_slot = static_cast<size_t>(slot_of_[static_cast<size_t>(q)]);
    // Everything in q's eps-neighborhood is now directly density-reachable
    // from q: core neighbors pull their clusters into q's; noise neighbors
    // become border points of q's cluster.
    q_neighbors.clear();
    neighbors_of(points_[q], q_neighbors);
    for (const PointId r : q_neighbors) {
      if (r == q) continue;
      if (core_[static_cast<size_t>(r)]) {
        // Every core has a slot by now (old cores got theirs when they
        // became core; this batch was pre-assigned above).
        unite_slots(q_slot,
                    static_cast<size_t>(slot_of_[static_cast<size_t>(r)]));
      } else if (slot_of_[static_cast<size_t>(r)] == kNone) {
        slot_of_[static_cast<size_t>(r)] =
            static_cast<i64>(find_slot(q_slot));  // noise -> border
      }
    }
  }

  // p itself: border of an adjacent core if it is not core.
  if (!core_[static_cast<size_t>(p)] &&
      slot_of_[static_cast<size_t>(p)] == kNone) {
    for (const PointId q : neighbors) {
      if (q != p && core_[static_cast<size_t>(q)]) {
        slot_of_[static_cast<size_t>(p)] =
            slot_of_[static_cast<size_t>(q)];
        break;
      }
    }
  }
}

bool IncrementalDbscan::try_remove(PointId id) {
  if (id < 0 || static_cast<u64>(id) >= next_id_) return false;
  const u32 row = row_of(id);
  if (row == kInvalidRow) return false;
  remove_rows({row});
  maybe_rebuild_after_remove();
  return true;
}

std::vector<IncrementalDbscan::BatchResult> IncrementalDbscan::apply_batch(
    std::span<const BatchOp> ops) {
  std::vector<BatchResult> results(ops.size());
  // Inserts first, in op order (within a batch, inserts happen-before
  // removes; a remove can target an id acked by an earlier batch or an
  // insert of this one).
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != BatchOp::Kind::kInsert) continue;
    results[i] = {true, insert(ops[i].coords)};
  }
  // Removes share one affected-region re-clustering.
  std::vector<u32> victims;
  FlatIdSet pending;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != BatchOp::Kind::kRemove) continue;
    const PointId id = ops[i].id;
    results[i].id = id;
    if (id < 0 || static_cast<u64>(id) >= next_id_) continue;
    const u32 row = row_of(id);
    if (row == kInvalidRow) continue;                 // unknown / stale id
    if (!pending.insert(static_cast<i64>(row))) continue;  // double remove
    victims.push_back(row);
    results[i].applied = true;
  }
  if (!victims.empty()) {
    remove_rows(victims);
    maybe_rebuild_after_remove();
  }
  return results;
}

void IncrementalDbscan::remove_rows(const std::vector<u32>& victims) {
  const auto minpts = static_cast<u64>(config_.params.minpts);

  // Snapshot each victim's pre-removal role, then tombstone all of them up
  // front so neighbor queries below see only survivors. (Row coords stay
  // readable until the next reclaim.)
  std::vector<char> was_core(victims.size());
  std::vector<i64> old_slot(victims.size());
  for (size_t k = 0; k < victims.size(); ++k) {
    const u32 v = victims[k];
    was_core[k] = core_[v];
    old_slot[k] = slot_of_[v];
    removed_[v] = 1;
    ++removed_count_;
    core_[v] = 0;
    slot_of_[v] = kNone;
  }

  // Each survivor q loses |N(q) ∩ victims| neighbors — one decrement per
  // (victim, q) adjacency. Collect the cores demoted by the loss.
  std::vector<PointId> nbrs;
  std::vector<u32> demoted;
  FlatIdSet demoted_set;
  for (const u32 v : victims) {
    nbrs.clear();
    neighbors_of(points_[static_cast<PointId>(v)], nbrs);
    for (const PointId q : nbrs) {
      --count_[static_cast<size_t>(q)];
      if (core_[static_cast<size_t>(q)] &&
          count_[static_cast<size_t>(q)] < minpts) {
        core_[static_cast<size_t>(q)] = 0;
        demoted.push_back(static_cast<u32>(q));
        demoted_set.insert(q);
      }
    }
  }

  // Affected clusters: every removed core's and every demoted core's.
  // Removing only border/noise points (with no demotions) changes nothing
  // about the survivors' clustering — no region work at all.
  FlatIdSet affected;
  for (size_t k = 0; k < victims.size(); ++k) {
    if (was_core[k] && old_slot[k] != kNone) {
      affected.insert(
          static_cast<i64>(find_slot(static_cast<size_t>(old_slot[k]))));
    }
  }
  for (const u32 d : demoted) {
    const i64 slot = slot_of_[d];
    if (slot != kNone) {
      affected.insert(static_cast<i64>(find_slot(static_cast<size_t>(slot))));
    }
  }
  if (affected.empty()) return;
  ++reclusterings_;

  // Affected-region search over the OLD core graph (survivors still core
  // plus this batch's demotions), seeded at the removed cores'
  // neighborhoods and at the demotions. Old cores reached this way provably
  // belong to affected clusters (two old cores within eps shared a
  // cluster), so the search never leaves the region — its cost scales with
  // the affected clusters, not with n. Non-core members of affected
  // clusters are collected along the way for re-attachment; components the
  // search never reaches keep their old slots, and with them their labels.
  std::vector<u32> region;
  FlatIdSet in_region;
  std::vector<u32> stack;
  auto consider = [&](PointId rid) {
    const auto r = static_cast<u32>(rid);
    if (in_region.contains(rid)) return;
    if (core_[r] || demoted_set.contains(rid)) {
      in_region.insert(rid);
      region.push_back(r);
      stack.push_back(r);
      return;
    }
    const i64 slot = slot_of_[r];
    if (slot != kNone &&
        affected.contains(
            static_cast<i64>(find_slot(static_cast<size_t>(slot))))) {
      in_region.insert(rid);
      region.push_back(r);
    }
  };
  for (const u32 d : demoted) consider(static_cast<PointId>(d));
  for (size_t k = 0; k < victims.size(); ++k) {
    if (!was_core[k]) continue;
    nbrs.clear();
    neighbors_of(points_[static_cast<PointId>(victims[k])], nbrs);
    for (const PointId r : nbrs) consider(r);
  }
  while (!stack.empty()) {
    const u32 x = stack.back();
    stack.pop_back();
    nbrs.clear();
    neighbors_of(points_[static_cast<PointId>(x)], nbrs);
    for (const PointId r : nbrs) {
      if (static_cast<u32>(r) != x) consider(r);
    }
  }

  for (const u32 x : region) slot_of_[x] = kNone;

  // Re-cluster the region: BFS over its core graph (fresh slot per
  // connected component), then border attachment. The BFS is closed within
  // the region: a core adjacent to a region core shared its cluster before
  // the removal, so the region search collected it.
  std::vector<PointId> frontier;
  std::vector<PointId> q_neighbors;
  for (const u32 c : region) {
    if (!core_[c] || slot_of_[c] != kNone) continue;
    const auto slot = static_cast<i64>(new_slot());
    slot_of_[c] = slot;
    frontier.assign(1, static_cast<PointId>(c));
    while (!frontier.empty()) {
      const PointId x = frontier.back();
      frontier.pop_back();
      q_neighbors.clear();
      neighbors_of(points_[x], q_neighbors);
      for (const PointId r : q_neighbors) {
        if (core_[static_cast<size_t>(r)] &&
            slot_of_[static_cast<size_t>(r)] == kNone) {
          slot_of_[static_cast<size_t>(r)] = slot;
          frontier.push_back(r);
        }
      }
    }
  }
  // Border attachment for the region's non-core points. Attaching to a core
  // OUTSIDE the region (an untouched component that kept its slot) is valid
  // — the border is within eps of that core.
  for (const u32 b : region) {
    if (core_[b] || slot_of_[b] != kNone) continue;
    q_neighbors.clear();
    neighbors_of(points_[static_cast<PointId>(b)], q_neighbors);
    for (const PointId r : q_neighbors) {
      if (core_[static_cast<size_t>(r)]) {
        slot_of_[b] = slot_of_[static_cast<size_t>(r)];
        break;
      }
    }
  }
}

void IncrementalDbscan::maybe_rebuild_after_insert() {
  if (config_.rebuild_threshold > 0 &&
      points_.size() - tree_size_ >= config_.rebuild_threshold) {
    rebuild_and_reclaim();
  }
}

void IncrementalDbscan::maybe_rebuild_after_remove() {
  if (config_.rebuild_threshold > 0 &&
      removed_count_ >= config_.rebuild_threshold) {
    rebuild_and_reclaim();
  }
}

void IncrementalDbscan::rebuild_and_reclaim() {
  if (removed_count_ > 0) {
    // Compact rows: drop tombstones, remap external ids, renumber the slot
    // forest root-by-root (grouping and first-appearance order are
    // preserved, so clustering() output is unchanged).
    const size_t live = points_.size() - removed_count_;
    PointSet rows(points_.dim());
    rows.reserve(live);
    std::vector<PointId> external;
    std::vector<char> core;
    std::vector<u64> count;
    std::vector<i64> slot;
    std::vector<char> removed;
    external.reserve(live);
    core.reserve(live);
    count.reserve(live);
    slot.reserve(live);
    removed.reserve(live);
    std::unordered_map<size_t, size_t> root_remap;
    std::vector<size_t> parent;
    for (size_t r = 0; r < points_.size(); ++r) {
      if (removed_[r]) {
        internal_of_.erase(external_of_[r]);
        continue;
      }
      internal_of_[external_of_[r]] = static_cast<u32>(external.size());
      rows.add(points_[static_cast<PointId>(r)]);
      external.push_back(external_of_[r]);
      core.push_back(core_[r]);
      count.push_back(count_[r]);
      removed.push_back(0);
      if (slot_of_[r] == kNone) {
        slot.push_back(kNone);
      } else {
        const size_t root = find_slot(static_cast<size_t>(slot_of_[r]));
        const auto [it, inserted] = root_remap.try_emplace(root, parent.size());
        if (inserted) parent.push_back(parent.size());
        slot.push_back(static_cast<i64>(it->second));
      }
    }
    reclaimed_ += removed_count_;
    points_ = std::move(rows);
    external_of_ = std::move(external);
    core_ = std::move(core);
    count_ = std::move(count);
    slot_of_ = std::move(slot);
    removed_ = std::move(removed);
    slot_parent_ = std::move(parent);
    removed_count_ = 0;
  }
  tree_.reset();
  if (!points_.empty()) tree_ = std::make_unique<KdTree>(points_);
  tree_size_ = points_.size();
  ++rebuilds_;
}

ClusterId IncrementalDbscan::label_of(PointId id) const {
  const u32 row = row_of(id);
  if (row == kInvalidRow) return kNoise;
  const i64 slot = slot_of_[row];
  if (slot == kNone) return kNoise;
  return static_cast<ClusterId>(find_slot(static_cast<size_t>(slot)));
}

Clustering IncrementalDbscan::clustering() const {
  Clustering c;
  c.labels.assign(static_cast<size_t>(next_id_), kNoise);
  std::unordered_map<size_t, ClusterId> remap;
  ClusterId next = 0;
  // Rows enumerate live ids in increasing external order, so dense
  // renumbering by first appearance matches the id-ordered convention.
  for (size_t r = 0; r < points_.size(); ++r) {
    if (removed_[r]) continue;
    const i64 slot = slot_of_[r];
    if (slot == kNone) continue;
    const size_t root = find_slot(static_cast<size_t>(slot));
    const auto [it, inserted] = remap.try_emplace(root, next);
    if (inserted) ++next;
    c.labels[static_cast<size_t>(external_of_[r])] = it->second;
  }
  c.num_clusters = static_cast<u64>(next);
  return c;
}

size_t IncrementalDbscan::resident_bytes() const {
  size_t bytes = points_.byte_size();
  bytes += core_.size() + removed_.size();
  bytes += count_.size() * sizeof(u64) + slot_of_.size() * sizeof(i64);
  bytes += external_of_.size() * sizeof(PointId);
  bytes += internal_of_.size() *
           (sizeof(PointId) + sizeof(u32) + 2 * sizeof(void*));
  bytes += slot_parent_.size() * sizeof(size_t);
  // kd-tree estimate: packed coords + per-node index bookkeeping.
  bytes += tree_size_ *
           (static_cast<size_t>(points_.dim()) * sizeof(double) + 16);
  return bytes;
}

u64 IncrementalDbscan::digest() const {
  const Clustering snap = clustering();
  u64 h = fnv1a_value(kFnvSeed, next_id_);
  for (PointId id = 0; id < static_cast<PointId>(next_id_); ++id) {
    const u32 row = row_of(id);
    if (row == kInvalidRow) continue;
    h = fnv1a_value(h, static_cast<u64>(id));
    const std::span<const double> coords = points_[static_cast<PointId>(row)];
    h = fnv1a(coords.data(), coords.size_bytes(), h);
    h = fnv1a_value(h, static_cast<u64>(snap.labels[static_cast<size_t>(id)]));
  }
  return h;
}

}  // namespace sdb::dbscan
