#include "spatial/kd_tree.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>

#include "geom/distance.hpp"
#include "util/thread_pool.hpp"

namespace sdb {

namespace {

static_assert(KdTree::kFanout == kBoxFanout,
              "one box-kernel call tests one wide node's slots");

/// Dimension cap for the fused leaf scatter+box pass's stack accumulators;
/// wider points take the strip export plus the plain per-row box loop.
constexpr int kMaxFusedDim = 64;
/// Below this many points a build is sequential regardless of the thread
/// option: thread-spawn plus task overhead would dominate.
constexpr u32 kParallelBuildThreshold = 1u << 14;

/// A node of the median-split build, which the constructor collapses into
/// wide nodes and frees.
struct BuildNode {
  // Leaf: [begin, end) into ids_. Internal: split dim/value + children.
  u32 begin = 0;
  u32 end = 0;
  i32 left = -1;
  i32 right = -1;
  i32 split_dim = -1;
  double split_value = 0.0;
  [[nodiscard]] bool is_leaf() const { return left < 0; }
};

/// kNearFirst[bits] lists a wide node's 8 slots, 3 bits each (first slot
/// lowest), in the binary descent's near-first order. Bit p of `bits` says
/// q lies past split plane p (heap order), i.e. the binary descent would
/// take that plane's right child first.
constexpr std::array<u32, 128> kNearFirst = [] {
  std::array<u32, 128> table{};
  for (u32 bits = 0; bits < 128; ++bits) {
    for (u32 k = 0; k < 8; ++k) {
      // Bit 2 - d of k: the k-th visit takes the far child at depth d.
      u32 path = 0;
      for (u32 d = 0; d < 3; ++d) {
        const u32 past = (bits >> ((1u << d) - 1 + path)) & 1;
        const u32 far = (k >> (2 - d)) & 1;
        path = 2 * path + (past ^ far);
      }
      table[bits] |= path << (3 * k);
    }
  }
  return table;
}();

}  // namespace

/// Shared state of one build. Parallel builds claim node slots from one
/// atomic cursor over preallocated arrays, so forked subtree tasks never
/// touch a shared container: every task writes only its own node slots and
/// its own disjoint subrange of ids_ (and disjoint strip lanes). Visibility
/// of the writes back to the constructing thread is established by
/// ThreadPool::wait_idle(). Sequential builds (pool == nullptr) skip the
/// machinery entirely and use the plain counters — no atomic RMW per node.
struct KdTree::BuildCtx {
  std::vector<BuildNode> nodes;
  std::vector<double> boxes;  // per node: interleaved [lo, hi] per dim
  std::vector<std::uint8_t> height;  // longest path to a leaf, per node
  int wide_depth = 0;
  std::atomic<u32> node_cursor{0};
  u32 seq_cursor = 0;   // plain cursor, pool == nullptr only
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

  /// Claim the slots of a sibling pair (left = base, right = base + 1)
  /// with one fetch_add(2). Both lie past the parent's slot, so a reverse
  /// pass over the slots meets every child before its parent.
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

  [[nodiscard]] u32 nodes_allocated() const {
    return pool == nullptr ? seq_cursor
                           : node_cursor.load(std::memory_order_relaxed);
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
  ctx.nodes.resize(max_nodes);
  ctx.boxes.resize(max_nodes * 2 * dim);

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

  const u32 root = ctx.alloc_node();
  build_range(static_cast<i32>(root), 0, static_cast<u32>(n), ctx);
  if (ctx.pool != nullptr) ctx.pool->wait_idle();

  // Heights, children before parents (alloc_children), then the collapse:
  // structural, so the wide layout does not depend on the build threads.
  const u32 node_count = ctx.nodes_allocated();
  ctx.height.assign(node_count, 0);
  for (u32 i = node_count; i-- > 0;) {
    const BuildNode& node = ctx.nodes[i];
    if (node.is_leaf()) continue;
    ctx.height[i] = static_cast<std::uint8_t>(
        1 + std::max(ctx.height[static_cast<size_t>(node.left)],
                     ctx.height[static_cast<size_t>(node.right)]));
  }
  depth_ = ctx.height[root];
  collapse(ctx, root, 1);
  nodes_.shrink_to_fit();
  boxes_.shrink_to_fit();
  leaves_.shrink_to_fit();
  // Median splits keep the wide depth near log2(n) / 3 + 1; enforce that
  // the query stack capacity covers it so a future split-policy change
  // cannot turn into silent stack corruption (see kQueryStackCap).
  SDB_CHECK(static_cast<int>(kFanout - 1) * ctx.wide_depth + 1 <=
                kQueryStackCap,
            "kd-tree depth exceeds query stack capacity");
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

void KdTree::build_range(i32 idx, u32 begin, u32 end, BuildCtx& ctx) {
  const int dim = points_.dim();

  BuildNode node;
  node.begin = begin;
  node.end = end;

  // Tight bounding box over [begin, end), interleaved [lo, hi] per dim.
  double* b = ctx.boxes.data() +
              static_cast<size_t>(idx) * 2 * static_cast<size_t>(dim);
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
    ctx.nodes[static_cast<size_t>(idx)] = node;
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
    ctx.nodes[static_cast<size_t>(idx)] = node;
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
  // tasks (the simple pool would deadlock on nested waits).
  const u32 base = ctx.alloc_children();
  const i32 left = static_cast<i32>(base);
  const i32 right = static_cast<i32>(base + 1);
  node.left = left;
  node.right = right;
  ctx.nodes[static_cast<size_t>(idx)] = node;

  // Task-recursive fork with a sequential cutoff: ship the left subtree to
  // the pool when it is big enough, keep the right on this thread (the
  // forked task forks its own children in turn). Build bodies never throw —
  // all storage is preallocated — so the discarded futures lose nothing.
  if (ctx.pool != nullptr && mid - begin > ctx.seq_cutoff) {
    ctx.pool->submit([this, left, begin, mid, &ctx] {
      build_range(left, begin, mid, ctx);
    });
  } else {
    build_range(left, begin, mid, ctx);
  }
  build_range(right, mid, end, ctx);
}

u32 KdTree::collapse(BuildCtx& ctx, u32 top, int level) {
  const size_t dim = static_cast<size_t>(points_.dim());
  const u32 w = static_cast<u32>(nodes_.size());
  nodes_.push_back(WideNode{});
  ctx.wide_depth = std::max(ctx.wide_depth, level);
  // Every slot starts empty: lo = +inf, hi = -inf.
  const size_t base = boxes_.size();
  for (size_t d = 0; d < dim; ++d) {
    boxes_.insert(boxes_.end(), kFanout,
                  std::numeric_limits<double>::infinity());
    boxes_.insert(boxes_.end(), kFanout,
                  -std::numeric_limits<double>::infinity());
  }
  // Walk the binary levels below `top`: a leaf, a node whose height is a
  // multiple of kLevels, or a node kLevels down fills a slot; any other
  // node is collapsed into this one as a split plane. nodes_ grows in the
  // recursion, so the node is re-indexed after every call.
  auto place = [&](auto&& self, u32 bin, u32 depth, u32 path) -> void {
    const BuildNode& node = ctx.nodes[bin];
    const bool slot = node.is_leaf() ||
                      (depth > 0 && (ctx.height[bin] % kLevels == 0 ||
                                     depth == kLevels));
    if (!slot) {
      const u32 plane = (1u << depth) - 1 + path;
      nodes_[w].plane_dim[plane] = static_cast<u32>(node.split_dim);
      nodes_[w].plane_value[plane] = node.split_value;
      self(self, static_cast<u32>(node.left), depth + 1, 2 * path);
      self(self, static_cast<u32>(node.right), depth + 1, 2 * path + 1);
      return;
    }
    u32 code = 0;
    if (node.is_leaf()) {
      code = kLeafSlot | static_cast<u32>(leaves_.size());
      leaves_.push_back(LeafRange{node.begin, node.end});
    } else {
      code = collapse(ctx, bin, level + 1);
    }
    const u32 s = path << (kLevels - depth);
    nodes_[w].slot[s] = code;
    nodes_[w].live |= 1u << s;
    const double* b = ctx.boxes.data() + static_cast<size_t>(bin) * 2 * dim;
    for (size_t d = 0; d < dim; ++d) {
      boxes_[base + d * 2 * kFanout + s] = b[2 * d];
      boxes_[base + d * 2 * kFanout + kFanout + s] = b[2 * d + 1];
    }
  };
  place(place, top, 0, 0);
  return w;
}

u32 KdTree::plane_bits(const WideNode& node, std::span<const double> q) {
  // !(q <= value): the binary descent's left-first test, negated.
  u32 bits = 0;
  for (u32 p = 0; p < kFanout - 1; ++p) {
    bits |= static_cast<u32>(!(q[node.plane_dim[p]] <= node.plane_value[p]))
            << p;
  }
  return bits;
}

void KdTree::range_query_budgeted(std::span<const double> q, double eps,
                                  const QueryBudget& budget,
                                  std::vector<PointId>& out) const {
  if (nodes_.empty()) return;
  // Explicit-stack depth-first descent over wide nodes. The stack holds
  // child wide nodes and leaves still to visit, next first on top; a wide
  // node visits its surviving slots in near-first order, so leaves are
  // reached in the binary descent's order.
  const size_t dim = static_cast<size_t>(points_.dim());
  const double eps2 = eps * eps;
  const double* strips = leaf_coords_.get();
  // Fetched once per query: the atomic dispatch load stays off the nodes.
  const simd::detail::KernelSet& kernels = simd::detail::kernels();
  const simd::RangeScanFn range = kernels.range;
  const simd::BoxDistFn box = kernels.box;
  u32 stack[kQueryStackCap];  // 7 x wide depth + 1 <= cap, checked at build
  int top = 0;
  stack[top++] = 0;  // the root

  // The descent records each reached leaf, in visit order, and scans a
  // batch of them with one strip_scan call per leaf, so the hit order is
  // the visit order (ascending ids_ position within a leaf) and nothing is
  // allocated. Without a neighbor budget a batch is kLeafBatch leaves; with
  // one it is a single leaf, scanned as it is reached, so the descent stops
  // at the leaf that fills the budget. The distance_evals tally charges one
  // evaluation per row strip_scan charges — the kernel's internal
  // partial-distance abandonment is an implementation detail of the
  // evaluation and never shows up in the counters. Work counters are
  // tallied here and flushed once per query: exactly the totals per-op
  // increments would produce.
  u64 left = budget.max_neighbors != 0 ? budget.max_neighbors : ~u64{0};
  const size_t batch = budget.max_neighbors != 0 ? 1 : kLeafBatch;
  u64 nodes_visited = 0;
  u64 distance_evals = 0;
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
  // Record a reached leaf; true once the scan it triggers fills the budget.
  auto reach = [&](u32 code) {
    leaves[reached++] = leaves_[code & ~kLeafSlot];
    if (reached < batch) return false;
    scan_leaves();
    return left == 0;
  };

  bool filled = false;
  while (top > 0 && !filled) {
    const u32 code = stack[--top];
    if ((code & kLeafSlot) != 0) {
      filled = reach(code);
      continue;
    }
    // The paper's branch-pruning cutoff: stop before the node past the cap.
    if (budget.max_nodes != 0 && nodes_visited == budget.max_nodes) break;
    ++nodes_visited;
    const WideNode& node = nodes_[code];
    double d2[kFanout];
    box(q.data(), dim, node_boxes(code), d2);
    u32 pass = 0;
    for (u32 s = 0; s < kFanout; ++s) {
      pass |= static_cast<u32>(d2[s] <= eps2) << s;
    }
    // An empty slot is +inf away, which passes when eps2 overflows to +inf.
    pass &= node.live;
    if (pass == 0) continue;
    const u32 order = kNearFirst[plane_bits(node, q)];
    // Leaf slots ahead of the first surviving child node are reached now;
    // that child and every survivor after it go on the stack, last first,
    // so they pop in order.
    u32 k = 0;
    for (; k < kFanout && !filled; ++k) {
      const u32 s = (order >> (3 * k)) & 7;
      if ((pass >> s & 1) == 0) continue;
      if ((node.slot[s] & kLeafSlot) == 0) break;
      filled = reach(node.slot[s]);
    }
    if (filled) break;
    for (u32 j = kFanout; j-- > k;) {
      const u32 s = (order >> (3 * j)) & 7;
      if ((pass >> s & 1) != 0) stack[top++] = node.slot[s];
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
  if (nodes_.empty() || k == 0) return;

  u64 nodes_visited = 0;
  u64 evals = 0;
  const size_t dim = static_cast<size_t>(points_.dim());
  const double* strips = leaf_coords_.get();
  const simd::detail::KernelSet& kernels = simd::detail::kernels();
  const simd::RangeScanFn range = kernels.range;
  const simd::BoxDistFn box = kernels.box;
  auto scan_leaf = [&](const LeafRange& leaf) {
    // A heap of overflowed (inf) distances — possible with
    // ~1e154-magnitude coordinates — would let the filter pass every row,
    // so it falls back to the scalar loop.
    if (heap.size() == k && std::isfinite(heap.top().first)) {
      // Range-scan-filtered leaf scan: with the heap full, a row can only
      // matter if (d2, id) < heap.top(), which requires d2 <= top.d2 — and
      // top.d2 never increases — so the range scan's hits at cutoff =
      // top.d2-at-leaf-entry (its <= keeps the d2 == cutoff rows the id
      // tie-break may still admit) are a superset of every row the scalar
      // loop below would insert. Survivors get the exact distance from the
      // same unfused scalar accumulation, so the heap evolves identically;
      // rows the filter drops satisfy d2 > cutoff >= top.d2-current and
      // were no-ops anyway. Charged one eval per row, exactly like the
      // scalar loop.
      const auto offer = [&](size_t pos) {
        const auto i = static_cast<u32>(pos);
        const Entry cand{squared_distance_uncounted(q, row(i)), ids_[i]};
        if (cand < heap.top()) {
          heap.pop();
          heap.push(cand);
        }
      };
      u64 unlimited = ~u64{0};
      evals += strip_scan(range, q, heap.top().first, strips, leaf.begin,
                          leaf.end, unlimited, offer);
      return;
    }
    // Scalar leaf scan while the heap is filling (the first leaves) or its
    // cutoff is not finite.
    for (u32 i = leaf.begin; i < leaf.end; ++i) {
      ++evals;
      const Entry cand{squared_distance_uncounted(q, row(i)), ids_[i]};
      if (heap.size() < k) {
        heap.push(cand);
      } else if (cand < heap.top()) {
        heap.pop();
        heap.push(cand);
      }
    }
  };
  // Depth-first over wide nodes, slots in near-first order. A node's 8 box
  // distances are computed when it is entered, and each slot is tested at
  // its turn against the heap as it is then — the test the binary
  // recursion made at that node. A collapsed level it would have pruned
  // earlier prunes every slot below it too: their boxes lie inside its box
  // and the heap top only shrinks. Iterative best-first would be faster;
  // depth-first with heap pruning is simpler and the call sites (examples,
  // tests, serve classify, the exact kNN graph builder's oracle) are small.
  bool capped = false;
  auto visit = [&](auto&& self, u32 code) -> void {
    // Node budget: stop before the node past the cap (max_neighbors is
    // ignored for kNN — see the contract in spatial_index.hpp).
    if (budget.max_nodes != 0 && nodes_visited == budget.max_nodes) {
      capped = true;
      return;
    }
    ++nodes_visited;
    const WideNode& node = nodes_[code];
    double d2[kFanout];
    box(q.data(), dim, node_boxes(code), d2);
    u32 order = kNearFirst[plane_bits(node, q)];
    for (u32 j = 0; j < kFanout && !capped; ++j, order >>= 3) {
      const u32 s = order & 7;
      if ((node.live >> s & 1) == 0) continue;
      // Strict > keeps the tie-break exact: a subtree at box distance equal
      // to the current k-th distance may still hold an equal-distance point
      // with a smaller id.
      if (heap.size() == k && d2[s] > heap.top().first) continue;
      const u32 child = node.slot[s];
      if ((child & kLeafSlot) != 0) {
        scan_leaf(leaves_[child & ~kLeafSlot]);
      } else {
        self(self, child);
      }
    }
  };
  visit(visit, 0);
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
         nodes_.size() * sizeof(WideNode) + boxes_.size() * sizeof(double) +
         leaves_.size() * sizeof(LeafRange) +
         leaf_coords_len_ * sizeof(double);
}

}  // namespace sdb
