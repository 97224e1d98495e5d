#include "spatial/grid_index.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "geom/distance.hpp"

namespace sdb {

GridIndex::GridIndex(const PointSet& points, double cell)
    : points_(points), cell_(cell) {
  SDB_CHECK(cell > 0.0, "grid cell size must be positive");
  const size_t dim = static_cast<size_t>(points_.dim());
  const size_t n = points_.size();

  // Pass 1: bucket ids per cell, remembering first-seen cell order so the
  // packed layout (and therefore query output order) is deterministic.
  std::unordered_map<u64, std::vector<PointId>> buckets;
  std::vector<u64> cell_order;
  std::vector<i64> coords(dim);
  for (PointId i = 0; i < static_cast<PointId>(n); ++i) {
    cell_coords(points_[i], coords);
    if (cell_lo_.empty()) {
      cell_lo_ = coords;
      cell_hi_ = coords;
    } else {
      for (size_t d = 0; d < dim; ++d) {
        cell_lo_[d] = std::min(cell_lo_[d], coords[d]);
        cell_hi_[d] = std::max(cell_hi_[d], coords[d]);
      }
    }
    auto [it, inserted] = buckets.try_emplace(coords_key(coords));
    if (inserted) cell_order.push_back(it->first);
    it->second.push_back(i);
  }

  // Pass 2: flatten into cell-contiguous id + strip-transposed coordinate
  // arrays (padding lanes of the final block zeroed by assign).
  packed_ids_.reserve(n);
  packed_coords_.assign(strip_padded_len(n, dim), 0.0);
  cells_.reserve(buckets.size());
  for (const u64 key : cell_order) {
    const std::vector<PointId>& members = buckets.at(key);
    CellRange range;
    range.begin = static_cast<u32>(packed_ids_.size());
    for (const PointId id : members) {
      strip_store_row(packed_coords_.data(), packed_ids_.size(), points_[id]);
      packed_ids_.push_back(id);
    }
    range.end = static_cast<u32>(packed_ids_.size());
    cells_.emplace(key, range);
  }
}

void GridIndex::cell_coords(std::span<const double> p,
                            std::vector<i64>& coords) const {
  for (size_t d = 0; d < p.size(); ++d) {
    coords[d] = static_cast<i64>(std::floor(p[d] / cell_));
  }
}

u64 GridIndex::coords_key(const std::vector<i64>& coords) const {
  // Mix the per-dimension cell indices into one 64-bit key.
  u64 h = 1469598103934665603ull;
  for (const i64 c : coords) {
    h ^= static_cast<u64>(c) + 0x9e3779b97f4a7c15ull;
    h *= 1099511628211ull;
  }
  return h;
}

u64 GridIndex::cell_key(std::span<const double> p) const {
  std::vector<i64> coords(p.size());
  cell_coords(p, coords);
  return coords_key(coords);
}

void GridIndex::range_query(std::span<const double> q, double eps,
                            std::vector<PointId>& out) const {
  range_query_budgeted(q, eps, QueryBudget{}, out);
}

void GridIndex::range_query_budgeted(std::span<const double> q, double eps,
                                     const QueryBudget& budget,
                                     std::vector<PointId>& out) const {
  const int dim = points_.dim();
  // The query radius may exceed the cell edge; compute the cell reach.
  const i64 reach = static_cast<i64>(std::ceil(eps / cell_));
  std::vector<i64> base(static_cast<size_t>(dim));
  cell_coords(q, base);

  const double eps2 = eps * eps;
  const simd::detail::KernelSet& kernels = simd::detail::kernels();
  u64 found = 0;
  u64 visited_cells = 0;
  u64 evals = 0;
  bool stopped = false;

  // Enumerate the (2*reach+1)^dim neighbor cells by odometer.
  std::vector<i64> offset(static_cast<size_t>(dim), -reach);
  std::vector<i64> coords(static_cast<size_t>(dim));
  for (;;) {
    for (int d = 0; d < dim; ++d) coords[d] = base[d] + offset[d];
    ++visited_cells;
    if (budget.max_nodes != 0 && visited_cells > budget.max_nodes) break;
    if (auto it = cells_.find(coords_key(coords)); it != cells_.end()) {
      const CellRange range = it->second;
      if (budget.max_neighbors == 0) {
        // One range-scan call over the cell's packed positions (a cell may
        // start and end mid-block). Hits come back in ascending packed
        // position, so candidate order and the distance_evals tally match
        // the scalar path exactly (one eval per candidate row, regardless
        // of the kernel's internal abandonment).
        evals += range.end - range.begin;
        strip_scan_exact(kernels.range, q, eps2, packed_coords_.data(),
                         range.begin, range.end,
                         [&](size_t pos) { out.push_back(packed_ids_[pos]); });
      } else {
        // Neighbor-budgeted cell scan, still through the strip kernel: the
        // mask walk reconstructs the scalar loop's exact stop row and
        // distance_evals charge (strip_scan_budgeted), so output, counters,
        // and the stop point are byte-identical to a per-row scalar gather.
        stopped = strip_scan_budgeted(
            kernels.strip, q, eps2, packed_coords_.data(), range.begin,
            range.end,
            budget.max_neighbors, found, evals,
            [&](size_t pos) { out.push_back(packed_ids_[pos]); });
      }
    }
    if (stopped) break;
    // Advance the odometer.
    int d = 0;
    for (; d < dim; ++d) {
      if (++offset[d] <= reach) break;
      offset[d] = -reach;
    }
    if (d == dim) break;
  }
  // One thread-local flush per query (exact totals — see counters::add).
  counters::tree_nodes(visited_cells);
  counters::distance_evals(evals);
}

void GridIndex::knn_query(std::span<const double> q, size_t k,
                          const QueryBudget& budget,
                          std::vector<KnnHit>& out) const {
  // Max-heap of lexicographic (d2, id) pairs — smaller-id tie-break at the
  // k-th distance (see the contract in spatial_index.hpp).
  using Entry = std::pair<double, PointId>;
  std::priority_queue<Entry> heap;
  if (k == 0 || points_.empty()) return;
  const size_t dim = static_cast<size_t>(points_.dim());
  std::vector<i64> base(dim);
  cell_coords(q, base);

  u64 cells_probed = 0;
  u64 evals = 0;
  bool budget_hit = false;
  std::vector<i64> coords(dim);
  auto probe_cell = [&]() {
    if (budget.max_nodes != 0 && cells_probed >= budget.max_nodes) {
      budget_hit = true;
      return;
    }
    ++cells_probed;
    const auto it = cells_.find(coords_key(coords));
    if (it == cells_.end()) return;
    const CellRange range = it->second;
    // One eval per row in the cell — every member is examined.
    evals += range.end - range.begin;
    for (u32 i = range.begin; i < range.end; ++i) {
      const Entry cand{
          squared_distance_uncounted(q, points_[packed_ids_[i]]),
          packed_ids_[i]};
      if (heap.size() < k) {
        heap.push(cand);
      } else if (cand < heap.top()) {
        heap.pop();
        heap.push(cand);
      }
    }
  };

  // High-dimensional fallback. The ring odometer below iterates the full
  // (2r+1)^dim offset box per ring, which dwarfs the occupied-cell count
  // long before dim reaches embedding sizes (3^64 offsets at d=64, r=1) —
  // geometric enumeration can never pay off once the occupied bounding box
  // holds more cells than the index has points. In that regime probe every
  // occupied cell once, in packed (build-deterministic) order; the unified
  // counter contract is unchanged: one tree_node per cell probed, one
  // distance_eval per row examined, budget.max_nodes caps the probes.
  double box_cells = 1.0;
  for (size_t d = 0; d < dim; ++d) {
    box_cells *= static_cast<double>(cell_hi_[d] - cell_lo_[d] + 1);
    if (box_cells > 1e18) break;
  }
  if (box_cells > std::max<double>(1024.0,
                                   4.0 * static_cast<double>(cells_.size()))) {
    // Sort by packed range start: the deterministic build order of the
    // cells, independent of the hash map's iteration order.
    std::vector<const CellRange*> occupied;
    occupied.reserve(cells_.size());
    for (const auto& [key, range] : cells_) occupied.push_back(&range);
    std::sort(occupied.begin(), occupied.end(),
              [](const CellRange* a, const CellRange* b) {
                return a->begin < b->begin;
              });
    for (const CellRange* range : occupied) {
      if (budget.max_nodes != 0 && cells_probed >= budget.max_nodes) break;
      ++cells_probed;
      evals += range->end - range->begin;
      for (u32 i = range->begin; i < range->end; ++i) {
        const Entry cand{
            squared_distance_uncounted(q, points_[packed_ids_[i]]),
            packed_ids_[i]};
        if (heap.size() < k) {
          heap.push(cand);
        } else if (cand < heap.top()) {
          heap.pop();
          heap.push(cand);
        }
      }
    }
    counters::tree_nodes(cells_probed);
    counters::distance_evals(evals);
    const size_t base_out = out.size();
    out.resize(base_out + heap.size());
    for (size_t i = heap.size(); i-- > 0;) {
      out[base_out + i] = KnnHit{heap.top().first, heap.top().second};
      heap.pop();
    }
    return;
  }

  // Expand Chebyshev rings r = 0, 1, 2, ... around the query's cell.
  for (i64 r = 0;; ++r) {
    if (budget_hit) break;
    if (r > 0) {
      // Prune: any point in a ring-r cell is at least (r-1)*cell away from
      // q in some coordinate (q lies inside its own cell). Strict > keeps
      // the tie-break exact — an equal-distance point with a smaller id
      // may still displace the heap top.
      if (heap.size() == k) {
        const double lb = static_cast<double>(r - 1) * cell_;
        if (lb * lb > heap.top().first) break;
      }
      // Termination: once the PREVIOUS ring box covers every occupied
      // cell, ring r and beyond hold nothing.
      bool covered = true;
      for (size_t d = 0; d < dim; ++d) {
        if (base[d] - (r - 1) > cell_lo_[d] ||
            base[d] + (r - 1) < cell_hi_[d]) {
          covered = false;
          break;
        }
      }
      if (covered) break;
    }
    // Odometer over offsets in [-r, r]^dim, probing only the shell
    // (Chebyshev norm == r) — deterministic cell order within the ring.
    std::vector<i64> off(dim, -r);
    for (;;) {
      bool on_shell = r == 0;
      for (size_t d = 0; d < dim && !on_shell; ++d) {
        on_shell = off[d] == -r || off[d] == r;
      }
      if (on_shell) {
        for (size_t d = 0; d < dim; ++d) coords[d] = base[d] + off[d];
        probe_cell();
        if (budget_hit) break;
      }
      size_t d = 0;
      for (; d < dim; ++d) {
        if (++off[d] <= r) break;
        off[d] = -r;
      }
      if (d == dim) break;
    }
  }
  counters::tree_nodes(cells_probed);
  counters::distance_evals(evals);

  const size_t base_out = out.size();
  out.resize(base_out + heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    out[base_out + i] = KnnHit{heap.top().first, heap.top().second};
    heap.pop();
  }
}

u64 GridIndex::byte_size() const {
  return points_.byte_size() +
         cells_.size() * (sizeof(u64) + sizeof(CellRange)) +
         packed_ids_.size() * sizeof(PointId) +
         packed_coords_.size() * sizeof(double);
}

}  // namespace sdb
