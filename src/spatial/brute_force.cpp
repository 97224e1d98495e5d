#include "spatial/brute_force.hpp"

#include <algorithm>
#include <bit>
#include <limits>
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
  const size_t dim = static_cast<size_t>(points_.dim());
  const simd::StripKernelFn kernel = simd::detail::strip_kernel();
  for (size_t i = 0; i < n;) {
    const size_t m = std::min(kDistanceStrip, n - i);
    const double cutoff = heap.size() == k ? heap.top().first
                                           : std::numeric_limits<double>::max();
    if (heap.size() == k && std::isfinite(cutoff)) {
      // Kernel cutoff filter (kd-tree leaf idiom): the <= mask at the
      // block-entry k-th distance is a superset of every row the scalar
      // loop could insert; survivors get the exact unfused scalar distance.
      u32 mask = kernel(q.data(), dim, cutoff,
                        strips_.data() + (i / kDistanceStrip) *
                            (kDistanceStrip * dim),
                        m);
      while (mask != 0) {
        const u32 j = static_cast<u32>(std::countr_zero(mask));
        const Entry cand{
            squared_distance_uncounted(q, points_[static_cast<PointId>(i + j)]),
            static_cast<PointId>(i + j)};
        if (cand < heap.top()) {
          heap.pop();
          heap.push(cand);
        }
        mask &= mask - 1;
      }
    } else {
      for (size_t j = 0; j < m; ++j) {
        const Entry cand{
            squared_distance_uncounted(q, points_[static_cast<PointId>(i + j)]),
            static_cast<PointId>(i + j)};
        if (heap.size() < k) {
          heap.push(cand);
        } else if (cand < heap.top()) {
          heap.pop();
          heap.push(cand);
        }
      }
    }
    i += m;
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
