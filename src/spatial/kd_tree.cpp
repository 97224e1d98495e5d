#include "spatial/kd_tree.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <numeric>
#include <queue>

#include "geom/distance.hpp"
#include "util/thread_pool.hpp"

namespace sdb {

namespace {

/// Dimension cap for the fused leaf scatter+box pass's stack accumulators;
/// wider points take the strip export plus the plain per-row box loop.
constexpr int kMaxFusedDim = 64;
/// Below this many points a build is sequential regardless of the thread
/// option: thread-spawn plus task overhead would dominate.
constexpr u32 kParallelBuildThreshold = 1u << 14;

}  // namespace

/// Shared state of one build. Parallel builds claim node slots from one
/// atomic cursor over preallocated arrays, so forked subtree tasks never
/// touch a shared container: every task writes only its own node slots and
/// its own disjoint subrange of ids_ (and disjoint strip lanes). Visibility
/// of the writes back to the constructing thread is established by
/// ThreadPool::wait_idle(). Sequential builds (pool == nullptr) skip the
/// machinery entirely and use the plain counters — no atomic RMW per node.
struct KdTree::BuildCtx {
  std::atomic<u32> node_cursor{0};
  std::atomic<int> max_depth{0};
  u32 seq_cursor = 0;   // plain cursor, pool == nullptr only
  int seq_depth = 0;    // plain depth high-water, pool == nullptr only
  u32 max_nodes = 0;
  u32 seq_cutoff = 0;  // subtree ranges <= this build inline (no fork)
  ThreadPool* pool = nullptr;

  u32 alloc_node() {
    if (pool == nullptr) {
      SDB_CHECK(seq_cursor < max_nodes, "kd-tree node bound exceeded");
      return seq_cursor++;
    }
    const u32 idx = node_cursor.fetch_add(1, std::memory_order_relaxed);
    SDB_CHECK(idx < max_nodes, "kd-tree node bound exceeded");
    return idx;
  }

  /// Claim two ADJACENT slots for a sibling pair (left = base, right =
  /// base + 1). Adjacency is guaranteed even under parallel builds — one
  /// fetch_add(2) instead of two racing fetch_add(1)s — so the query loop
  /// can prefetch both children's node records and (contiguous) box rows
  /// with a fixed number of cache-line touches.
  u32 alloc_children() {
    if (pool == nullptr) {
      SDB_CHECK(seq_cursor + 1 < max_nodes, "kd-tree node bound exceeded");
      const u32 base = seq_cursor;
      seq_cursor += 2;
      return base;
    }
    const u32 base = node_cursor.fetch_add(2, std::memory_order_relaxed);
    SDB_CHECK(base + 1 < max_nodes, "kd-tree node bound exceeded");
    return base;
  }

  void note_depth(int depth) {
    if (pool == nullptr) {
      if (depth > seq_depth) seq_depth = depth;
      return;
    }
    int seen = max_depth.load(std::memory_order_relaxed);
    while (depth > seen &&
           !max_depth.compare_exchange_weak(seen, depth,
                                            std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] u32 nodes_allocated() const {
    return pool == nullptr ? seq_cursor
                           : node_cursor.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int depth_seen() const {
    return pool == nullptr ? seq_depth
                           : max_depth.load(std::memory_order_relaxed);
  }
};

KdTree::KdTree(const PointSet& points, const KdTreeOptions& options)
    : points_(points), leaf_size_(std::max(1, options.leaf_size)) {
  const size_t n = points_.size();
  ids_.resize(n);
  std::iota(ids_.begin(), ids_.end(), PointId{0});
  if (n == 0) return;

  const size_t dim = static_cast<size_t>(points_.dim());
  // Structural bound on the node count: internal nodes split at the median,
  // so every leaf holds > leaf_size/2 points (degenerate-spread leaves hold
  // more) => <= 2n/(L+1) * 2 nodes total. Preallocating at the bound lets
  // parallel tasks claim slots with one atomic increment.
  const size_t max_nodes =
      4 * n / (static_cast<size_t>(leaf_size_) + 1) + 8;
  BuildCtx ctx;
  ctx.max_nodes = static_cast<u32>(max_nodes);
  nodes_.resize(max_nodes);
  boxes_.resize(max_nodes * 2 * dim);

  // Strip-transposed leaf-order buffer, filled in place as leaves
  // finalize. Allocate without zero-filling the whole buffer (the leaf
  // stores overwrite every live lane); only the final block's padding lanes
  // need zeros so vector loads never read uninitialized memory.
  leaf_coords_len_ = strip_padded_len(n, dim);
  leaf_coords_ = std::make_unique_for_overwrite<double[]>(leaf_coords_len_);
  const size_t live = ((n - 1) / kDistanceStrip) * kDistanceStrip * dim;
  std::fill(leaf_coords_.get() + live, leaf_coords_.get() + leaf_coords_len_,
            0.0);

  const unsigned threads = resolve_threads(options.build_threads);

  std::unique_ptr<ThreadPool> pool;
  if (threads > 1 && n >= kParallelBuildThreshold) {
    pool = std::make_unique<ThreadPool>(threads);
    ctx.pool = pool.get();
    // Fork until subtrees are ~n/(8*threads): enough tasks to balance the
    // pool without drowning it in queue traffic.
    ctx.seq_cutoff = std::max<u32>(static_cast<u32>(leaf_size_),
                                   static_cast<u32>(n / (threads * 8)));
  }

  root_ = static_cast<i32>(ctx.alloc_node());
  build_range(root_, 0, static_cast<u32>(n), 0, ctx);
  if (ctx.pool != nullptr) ctx.pool->wait_idle();

  depth_ = ctx.depth_seen();
  // Median splits bound the depth at ~log2(n) + 1; enforce that the query
  // stack capacity covers it so a future split-policy change cannot turn
  // into silent stack corruption (see kQueryStackCap).
  SDB_CHECK(depth_ + 1 <= kQueryStackCap,
            "kd-tree depth exceeds query stack capacity");
  const u32 node_count = ctx.nodes_allocated();
  nodes_.resize(node_count);
  nodes_.shrink_to_fit();
  boxes_.resize(static_cast<size_t>(node_count) * 2 * dim);
  boxes_.shrink_to_fit();
}

/// Scatter rows [begin, end) of the id permutation into the strip buffer.
/// Row-major reads (each row contiguous), lane-strided writes that stay
/// inside the leaf's few L1-resident strip blocks. Non-temporal stores were
/// measured here and lost: on this class of host plain stores win at both
/// 100k and 1m points (partial-line NT writes cost more than the RFO they
/// save, and the staged-tile variant pays an extra copy).
void KdTree::export_leaf_strips(u32 begin, u32 end) {
  double* strips = leaf_coords_.get();
  for (u32 i = begin; i < end; ++i) {
    strip_store_row(strips, i, points_[ids_[i]]);
  }
}

void KdTree::build_range(i32 idx, u32 begin, u32 end, int depth,
                         BuildCtx& ctx) {
  const int dim = points_.dim();
  ctx.note_depth(depth);

  Node node;
  node.begin = begin;
  node.end = end;
  node.box = static_cast<u32>(idx) * 2 * static_cast<u32>(dim);

  // Tight bounding box over [begin, end), interleaved [lo, hi] per dim.
  double* b = boxes_.data() + node.box;
  for (int d = 0; d < dim; ++d) {
    b[2 * d] = std::numeric_limits<double>::infinity();
    b[2 * d + 1] = -std::numeric_limits<double>::infinity();
  }

  if (end - begin <= static_cast<u32>(leaf_size_)) {
    // Size-bounded leaf: scatter the rows into the strip-transposed buffer
    // in place (no build-then-copy), fused with the bounding-box reduction
    // in a single pass over the rows.
    if (dim <= kMaxFusedDim) {
      // STACK-LOCAL min/max accumulators: locals provably don't alias the
      // lane stores, so the accumulators live in registers/L1 instead of
      // the load-modify-store chain on b that the per-row branch below pays
      // per element (b could alias the coordinate loads as far as the
      // compiler can prove).
      double lo[kMaxFusedDim], hi[kMaxFusedDim];
      for (int d = 0; d < dim; ++d) {
        lo[d] = std::numeric_limits<double>::infinity();
        hi[d] = -std::numeric_limits<double>::infinity();
      }
      double* strips = leaf_coords_.get();
      for (u32 i = begin; i < end; ++i) {
        const auto p = points_[ids_[i]];
        double* lane = strip_lane(strips, i, static_cast<size_t>(dim));
        for (int d = 0; d < dim; ++d) {
          const double v = p[d];
          lane[static_cast<size_t>(d) * kDistanceStrip] = v;
          lo[d] = std::min(lo[d], v);
          hi[d] = std::max(hi[d], v);
        }
      }
      for (int d = 0; d < dim; ++d) {
        b[2 * d] = lo[d];
        b[2 * d + 1] = hi[d];
      }
    } else {
      // A dimensionality too wide for the stack accumulators (rare): the
      // strip export, then a plain per-row box update.
      export_leaf_strips(begin, end);
      for (u32 i = begin; i < end; ++i) {
        const auto p = points_[ids_[i]];
        for (int d = 0; d < dim; ++d) {
          b[2 * d] = std::min(b[2 * d], p[d]);
          b[2 * d + 1] = std::max(b[2 * d + 1], p[d]);
        }
      }
    }
    nodes_[static_cast<size_t>(idx)] = node;
    return;
  }

  for (u32 i = begin; i < end; ++i) {
    const auto p = points_[ids_[i]];
    for (int d = 0; d < dim; ++d) {
      b[2 * d] = std::min(b[2 * d], p[d]);
      b[2 * d + 1] = std::max(b[2 * d + 1], p[d]);
    }
  }

  // Split on the dimension of largest spread at the median.
  int best_dim = 0;
  double best_spread = -1.0;
  for (int d = 0; d < dim; ++d) {
    const double spread = b[2 * d + 1] - b[2 * d];
    if (spread > best_spread) {
      best_spread = spread;
      best_dim = d;
    }
  }

  // Degenerate spread (all coordinates equal): keep as leaf to guarantee
  // termination.
  if (best_spread <= 0.0) {
    export_leaf_strips(begin, end);
    nodes_[static_cast<size_t>(idx)] = node;
    return;
  }

  const u32 mid = begin + (end - begin) / 2;
  std::nth_element(ids_.begin() + begin, ids_.begin() + mid,
                   ids_.begin() + end, [&](PointId a, PointId b) {
                     return points_[a][best_dim] < points_[b][best_dim];
                   });
  node.split_dim = best_dim;
  node.split_value = points_[ids_[mid]][best_dim];

  // Children slots are claimed by the parent so the node can be finalized
  // before the subtree tasks run — no post-hoc patching, no joins inside
  // tasks (the simple pool would deadlock on nested waits). The pair is
  // adjacent (alloc_children) so queries can prefetch both siblings.
  const u32 base = ctx.alloc_children();
  const i32 left = static_cast<i32>(base);
  const i32 right = static_cast<i32>(base + 1);
  node.left = left;
  node.right = right;
  nodes_[static_cast<size_t>(idx)] = node;

  // Task-recursive fork with a sequential cutoff: ship the left subtree to
  // the pool when it is big enough, keep the right on this thread (the
  // forked task forks its own children in turn). Build bodies never throw —
  // all storage is preallocated — so the discarded futures lose nothing.
  if (ctx.pool != nullptr && mid - begin > ctx.seq_cutoff) {
    ctx.pool->submit([this, left, begin, mid, depth, &ctx] {
      build_range(left, begin, mid, depth + 1, ctx);
    });
  } else {
    build_range(left, begin, mid, depth + 1, ctx);
  }
  build_range(right, mid, end, depth + 1, ctx);
}

double KdTree::box_distance2(const Node& node, std::span<const double> q,
                             double cutoff) const {
  // Branchless clamp: the outside-the-box excess per dimension is
  // max(lo-q, q-hi, 0). Accumulation stays a single ascending-d chain so
  // the result is identical for every build/query configuration; the
  // early exit only ever skips dimensions once "result > cutoff" is already
  // decided (the sum is monotone), and with the interleaved [lo, hi] box
  // rows it keeps most pruned nodes inside their first cache line.
  const int dim = points_.dim();
  const double* b = boxes_.data() + node.box;
  double s = 0.0;
  for (int d = 0; d < dim; ++d) {
    const double diff =
        std::max(std::max(b[2 * d] - q[d], q[d] - b[2 * d + 1]), 0.0);
    s += diff * diff;
    if (s > cutoff) break;
  }
  return s;
}

void KdTree::range_query_budgeted(std::span<const double> q, double eps,
                                  const QueryBudget& budget,
                                  std::vector<PointId>& out) const {
  if (root_ < 0) return;
  // Explicit-stack depth-first descent, near child popped first — the same
  // node sequence the recursive formulation visits, minus the call frames.
  // Median splits halve the range every level, so the depth (== max live
  // far-children on the stack) is bounded by ~log2(n) + 1; 64 covers any
  // 32-bit point count with a wide margin.
  const size_t dim = static_cast<size_t>(points_.dim());
  const double eps2 = eps * eps;
  const double* strips = leaf_coords_.get();
  // Fetched once per query: the atomic dispatch load stays off the leaves.
  const simd::RangeScanFn range = simd::detail::kernels().range;
  i32 stack[kQueryStackCap];  // depth_ + 1 <= cap, checked at build
  int top = 0;
  stack[top++] = root_;

  // The descent records each reached leaf, in visit order, and scans a
  // batch of them with one strip_scan call per leaf, so the hit order is
  // the visit order (ascending ids_ position within a leaf) and nothing is
  // allocated. Without a neighbor budget a batch is kLeafBatch leaves; with
  // one it is a single leaf, scanned as it is reached, so the descent stops
  // at the leaf that fills the budget. The distance_evals tally charges one
  // evaluation per row strip_scan charges — the kernel's internal
  // partial-distance abandonment is an implementation detail of the
  // evaluation, like box_distance2's monotone early exit, and never shows up
  // in the counters. Work counters are tallied here and flushed once per
  // query: exactly the totals per-op increments would produce.
  u64 left = budget.max_neighbors != 0 ? budget.max_neighbors : ~u64{0};
  const size_t batch = budget.max_neighbors != 0 ? 1 : kLeafBatch;
  u64 nodes_visited = 0;
  u64 distance_evals = 0;
  struct LeafRange {
    u32 begin;
    u32 end;
  };
  LeafRange leaves[kLeafBatch];  // [0, reached) written before read
  size_t reached = 0;
  auto scan_leaves = [&] {
    for (size_t k = 0; k < reached; ++k) {
      distance_evals +=
          strip_scan(range, q, eps2, strips, leaves[k].begin, leaves[k].end,
                     left, [&](size_t pos) { out.push_back(ids_[pos]); });
    }
    reached = 0;
  };

  while (top > 0) {
    const Node& node = nodes_[static_cast<size_t>(stack[--top])];
    ++nodes_visited;
    if (budget.max_nodes != 0 && nodes_visited > budget.max_nodes) {
      break;  // the paper's branch-pruning cutoff
    }
    if (box_distance2(node, q, eps2) > eps2) continue;

    if (!node.is_leaf()) {
      // The sibling pair is adjacent (alloc_children): start both children's
      // node records and box rows toward the cache while this iteration
      // finishes — the near child is popped immediately after.
      __builtin_prefetch(nodes_.data() + node.left);
      __builtin_prefetch(nodes_.data() + node.right);
      __builtin_prefetch(boxes_.data() +
                         static_cast<size_t>(node.left) * 2 * dim);
      __builtin_prefetch(boxes_.data() +
                         static_cast<size_t>(node.right) * 2 * dim);
      // Descend the side containing q first: with a neighbor budget this
      // reports the densest nearby region before the cutoff fires.
      const bool left_first = q[node.split_dim] <= node.split_value;
      stack[top++] = left_first ? node.right : node.left;  // far: visited later
      stack[top++] = left_first ? node.left : node.right;  // near: popped next
      continue;
    }

    leaves[reached++] = LeafRange{node.begin, node.end};
    if (reached == batch) {
      scan_leaves();
      if (left == 0) break;  // this leaf filled the neighbor budget
    }
  }
  scan_leaves();
  counters::tree_nodes(nodes_visited);
  counters::distance_evals(distance_evals);
}

void KdTree::knn_query(std::span<const double> q, size_t k,
                       const QueryBudget& budget,
                       std::vector<KnnHit>& out) const {
  // Max-heap of (distance2, id), bounded to k entries. The PAIR compares —
  // lexicographic (d2, id) — so the retained set is the k smallest (d2, id)
  // pairs: ties at exactly the k-th distance are broken toward the smaller
  // id, deterministically, regardless of tree layout or traversal order.
  // (Comparing d2 alone kept whichever tied point the traversal reached
  // first — a function of leaf packing, not of the data.)
  using Entry = std::pair<double, PointId>;
  std::priority_queue<Entry> heap;
  if (root_ < 0 || k == 0) return;

  u64 nodes_visited = 0;
  u64 evals = 0;
  // Iterative best-first would be faster; recursive depth-first with heap
  // pruning is simpler and the call sites (examples, tests, the exact kNN
  // graph builder's oracle) are small.
  const double* strips = leaf_coords_.get();
  const simd::StripKernelFn kernel = simd::detail::strip_kernel();
  auto visit = [&](auto&& self, i32 node_id) -> void {
    // Node budget: stop descending once the cap is reached (max_neighbors
    // is ignored for kNN — see the contract in spatial_index.hpp).
    if (budget.max_nodes != 0 && nodes_visited >= budget.max_nodes) return;
    ++nodes_visited;
    const Node& node = nodes_[static_cast<size_t>(node_id)];
    // Strict > keeps the tie-break exact: a subtree at box distance equal
    // to the current k-th distance may still hold an equal-distance point
    // with a smaller id.
    if (heap.size() == k &&
        box_distance2(node, q, heap.top().first) > heap.top().first) {
      return;
    }
    if (node.is_leaf()) {
      // A heap of overflowed (inf) distances — possible with
      // ~1e154-magnitude coordinates — would let the filter pass every
      // row, so it falls back to the scalar loop.
      if (heap.size() == k && std::isfinite(heap.top().first)) {
        // Kernel-filtered leaf scan: with the heap full, a row can only
        // matter if (d2, id) < heap.top(), which requires d2 <= top.d2 —
        // and top.d2 never increases — so the kernel mask at cutoff =
        // top.d2-at-leaf-entry (its <= keeps the d2 == cutoff rows the
        // id tie-break may still admit) is a superset of every row the
        // scalar loop below would insert. Survivors get the exact distance
        // from the same unfused scalar accumulation, so the heap evolves
        // identically; rows the filter drops satisfy d2 > cutoff >=
        // top.d2-current and were no-ops anyway. Charged one eval per row,
        // exactly like the scalar loop.
        evals += node.end - node.begin;
        const double cutoff = heap.top().first;
        for (u32 i = node.begin; i < node.end;) {
          const u32 lane = i % static_cast<u32>(kDistanceStrip);
          const u32 m = std::min<u32>(static_cast<u32>(kDistanceStrip) - lane,
                                      node.end - i);
          u32 mask = kernel(q.data(), static_cast<size_t>(points_.dim()),
                            cutoff, strip_lane(strips, i,
                                               static_cast<size_t>(
                                                   points_.dim())),
                            m);
          while (mask != 0) {
            const u32 j = static_cast<u32>(std::countr_zero(mask));
            const Entry cand{squared_distance_uncounted(q, row(i + j)),
                             ids_[i + j]};
            if (cand < heap.top()) {
              heap.pop();
              heap.push(cand);
            }
            mask &= mask - 1;
          }
          i += m;
        }
        return;
      }
      // Scalar leaf scan while the heap is filling (the first leaves) or
      // its cutoff is not finite.
      for (u32 i = node.begin; i < node.end; ++i) {
        ++evals;
        const Entry cand{squared_distance_uncounted(q, row(i)), ids_[i]};
        if (heap.size() < k) {
          heap.push(cand);
        } else if (cand < heap.top()) {
          heap.pop();
          heap.push(cand);
        }
      }
      return;
    }
    const bool left_first = q[node.split_dim] <= node.split_value;
    self(self, left_first ? node.left : node.right);
    self(self, left_first ? node.right : node.left);
  };
  visit(visit, root_);
  // One thread-local flush per query (see the counter contract).
  counters::tree_nodes(nodes_visited);
  counters::distance_evals(evals);

  const size_t base = out.size();
  out.resize(base + heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    out[base + i] = KnnHit{heap.top().first, heap.top().second};
    heap.pop();
  }
}

std::vector<PointId> KdTree::knn(std::span<const double> q, size_t k) const {
  std::vector<KnnHit> hits;
  knn_query(q, k, QueryBudget{}, hits);
  std::vector<PointId> out;
  out.reserve(hits.size());
  for (const KnnHit& h : hits) out.push_back(h.id);
  return out;
}

u64 KdTree::byte_size() const {
  return points_.byte_size() + ids_.size() * sizeof(PointId) +
         nodes_.size() * sizeof(Node) + boxes_.size() * sizeof(double) +
         leaf_coords_len_ * sizeof(double);
}

}  // namespace sdb
