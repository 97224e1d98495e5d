// Independent references for spatial-index query tests.
//
// The hit-set oracles are per-point loops over the PointSet: no index, no
// strip layout, no kernel dispatch. The order-and-counter reference runs
// the same index under a neighbor budget no query can fill. On the kd-tree
// that is the same descent on its other schedule: each leaf is scanned as
// it is reached (a batch of one), where the exact query collects up to
// KdTree::kLeafBatch leaves before it scans them.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "geom/distance.hpp"
#include "spatial/spatial_index.hpp"
#include "util/counters.hpp"

namespace sdb::test {

/// Every point of `ps` within eps of q, in id order.
inline std::vector<PointId> per_point_hits(const PointSet& ps,
                                           std::span<const double> q,
                                           double eps) {
  std::vector<PointId> hits;
  for (PointId i = 0; i < static_cast<PointId>(ps.size()); ++i) {
    if (squared_distance_uncounted(q, ps[i]) <= eps * eps) hits.push_back(i);
  }
  return hits;
}

/// The k smallest (d2, id) pairs over every point of `ps`, ascending.
inline std::vector<KnnHit> brute_oracle(const PointSet& ps,
                                        std::span<const double> q, size_t k) {
  std::vector<KnnHit> all;
  for (PointId i = 0; i < static_cast<PointId>(ps.size()); ++i) {
    all.push_back({squared_distance_uncounted(q, ps[i]), i});
  }
  std::sort(all.begin(), all.end(), [](const KnnHit& a, const KnnHit& b) {
    return std::pair{a.d2, a.id} < std::pair{b.d2, b.id};
  });
  if (all.size() > k) all.resize(k);
  return all;
}

/// One range query's hits, in reported order, and its work counters.
struct QueryRun {
  std::vector<PointId> hits;
  u64 distance_evals = 0;
  u64 tree_nodes = 0;
};

inline QueryRun run_query(const SpatialIndex& index, std::span<const double> q,
                          double eps, const QueryBudget& budget = {}) {
  QueryRun run;
  WorkCounters wc;
  {
    ScopedCounters scope(&wc);
    index.range_query_budgeted(q, eps, budget, run.hits);
  }
  run.distance_evals = wc.distance_evals;
  run.tree_nodes = wc.tree_nodes;
  return run;
}

/// The query under a neighbor budget of size() + 1, which never fills, and
/// the node budget `max_nodes`: the leaf-at-a-time schedule, the reference
/// for the batched schedule's hit order, distance_evals and tree_nodes.
inline QueryRun run_unreachable_budget(const SpatialIndex& index,
                                       std::span<const double> q, double eps,
                                       u64 max_nodes = 0) {
  QueryBudget budget;
  budget.max_neighbors = index.size() + 1;
  budget.max_nodes = max_nodes;
  return run_query(index, q, eps, budget);
}

}  // namespace sdb::test
