#include "spatial/brute_force.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "geom/distance.hpp"

namespace sdb {

BruteForceIndex::BruteForceIndex(const PointSet& points) : points_(points) {
  const size_t n = points_.size();
  if (n == 0) return;
  const size_t dim = static_cast<size_t>(points_.dim());
  strips_.assign(strip_padded_len(n, dim), 0.0);
  for (size_t i = 0; i < n; ++i) {
    strip_store_row(strips_.data(), i, points_[static_cast<PointId>(i)]);
  }
}

void BruteForceIndex::range_query_budgeted(std::span<const double> q,
                                           double eps,
                                           const QueryBudget& budget,
                                           std::vector<PointId>& out) const {
  // Ids are packed-position order here, so the scan is one long range-scan
  // run over whole strip blocks (the final block is the only partial one),
  // chunked by the position buffer; a neighbor budget stops it at the row
  // that fills it. max_nodes has no nodes to bound.
  u64 left = budget.max_neighbors != 0 ? budget.max_neighbors : ~u64{0};
  counters::distance_evals(strip_scan(
      simd::detail::kernels().range, q, eps * eps, strips_.data(), 0,
      points_.size(), left,
      [&](size_t pos) { out.push_back(static_cast<PointId>(pos)); }));
}

void BruteForceIndex::knn_query(std::span<const double> q, size_t k,
                                const QueryBudget& budget,
                                std::vector<KnnHit>& out) const {
  (void)budget;  // no nodes to bound; max_neighbors ignored per contract
  // Max-heap of lexicographic (d2, id) pairs — the smaller-id tie-break at
  // the k-th distance (see spatial_index.hpp).
  using Entry = std::pair<double, PointId>;
  std::priority_queue<Entry> heap;
  const size_t n = points_.size();
  if (k == 0 || n == 0) return;
  const simd::RangeScanFn range = simd::detail::kernels().range;
  const auto offer = [&](size_t i) {
    const auto id = static_cast<PointId>(i);
    const Entry cand{squared_distance_uncounted(q, points_[id]), id};
    if (heap.size() < k) {
      heap.push(cand);
    } else if (cand < heap.top()) {
      heap.pop();
      heap.push(cand);
    }
  };
  for (size_t i = 0; i < n; i += kDistanceStrip) {
    const size_t end = std::min(n, i + kDistanceStrip);
    if (heap.size() == k && std::isfinite(heap.top().first)) {
      // Range-scan cutoff filter (kd-tree leaf idiom): the <= hits at the
      // block-entry k-th distance are a superset of every row the scalar
      // loop could insert; survivors get the exact unfused scalar distance.
      u64 unlimited = ~u64{0};
      strip_scan(range, q, heap.top().first, strips_.data(), i, end,
                 unlimited, offer);
    } else {
      for (size_t j = i; j < end; ++j) offer(j);
    }
  }
  // One eval per row examined — the scan examines every row exactly once.
  counters::distance_evals(n);

  const size_t base = out.size();
  out.resize(base + heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    out[base + i] = KnnHit{heap.top().first, heap.top().second};
    heap.pop();
  }
}

}  // namespace sdb
