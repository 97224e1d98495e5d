// kd-tree (Bentley 1975), the spatial index the paper broadcasts to all
// executors to cut neighborhood search from O(n^2) to ~O(n log n).
//
// Build: recursive median split (std::nth_element) on the dimension of
// largest spread, leaf buckets of kLeafSize points. Large builds fork the
// two subtree recursions as util/thread_pool tasks (with a sequential
// cutoff); nth_element operates on disjoint id subranges, so the tasks
// share no mutable state and the resulting tree is bit-identical in
// structure to a sequential build. Sequential builds (build_threads <= 1,
// or below the size threshold) skip the parallel machinery entirely —
// plain slot counters, no atomics, no pool.
// Layout: the tree keeps a strip-transposed (SoA) copy of the coordinates
// in leaf-traversal order — blocks of kDistanceStrip points stored
// dimension-major (see distance_simd.hpp) — filled IN PLACE as each leaf is
// finalized during the build, so the packed layout costs the leaf stores
// only, not a second full pass. ids_ doubles as the remap table back to
// original PointIds.
// Query: classic ball-overlap descent with AABB pruning, one descent for
// every query. The reached leaves are recorded in visit order into a fixed
// stack buffer and each is scanned with one strip_scan call (distance.hpp)
// of the runtime-dispatched SIMD range scan (distance_simd.hpp), which
// writes the leaf's hit positions for the ids_ remap. Without a neighbor
// budget a full buffer is scanned before the descent goes on; with one,
// each leaf is scanned as it is reached, and the scan stops at the exact
// row that fills the budget. Hits come in visit order, ascending position
// within a leaf, and each scanned row up to the stop is charged one
// distance_eval. The optional QueryBudget implements the paper's "kd-tree
// with pruning branches" approximation used for the 1M-point experiments
// (it bounds the neighbor count / node visits, trading exactness for time
// — see the approximation contract on QueryBudget in spatial_index.hpp).
// Work counters are tallied locally during the descent and flushed once
// per query (counters::add) — exact totals, one thread-local access per
// query.
#pragma once

#include <memory>

#include "spatial/spatial_index.hpp"

namespace sdb {

/// Build-time knobs.
struct KdTreeOptions {
  /// Leaf bucket capacity. 192 is the vector-era tuning: wider leaves
  /// convert expensive per-node box tests into strip-kernel lanes that cost
  /// a fraction of a scalar evaluation each, and the kernels' partial-
  /// distance abandonment keeps the extra candidates cheap — most of them
  /// stop a few dimensions in (16 was the scalar-era default; see DESIGN.md
  /// §14 for the sweep).
  int leaf_size = 192;
  /// Worker threads for the build. 0 = auto (hardware concurrency, capped);
  /// 1 = fully sequential. Parallelism only engages above a size threshold,
  /// so small builds never pay thread-spawn cost.
  unsigned build_threads = 0;
};

class ThreadPool;

class KdTree final : public SpatialIndex {
 public:
  /// Build over all points in `points`. The tree keeps a reference to the
  /// PointSet and a strip-transposed coordinate snapshot (one extra
  /// ~n*dim*8-byte buffer, reflected in byte_size()); the caller must keep
  /// the PointSet alive and unmutated for the tree's lifetime — post-build
  /// mutations would not be reflected in the packed layout, the split
  /// structure, or the bounding boxes.
  explicit KdTree(const PointSet& points, int leaf_size = 192)
      : KdTree(points, KdTreeOptions{.leaf_size = leaf_size}) {}

  KdTree(const PointSet& points, const KdTreeOptions& options);

  void range_query_budgeted(std::span<const double> q, double eps,
                            const QueryBudget& budget,
                            std::vector<PointId>& out) const override;

  /// Unified kNN query (see the contract on SpatialIndex::knn_query):
  /// ascending (d2, id) with deterministic smaller-id tie-break at the k-th
  /// distance, one distance_eval per row examined, max_nodes-budgeted
  /// descent.
  void knn_query(std::span<const double> q, size_t k,
                 const QueryBudget& budget,
                 std::vector<KnnHit>& out) const override;

  /// Ids of the k nearest neighbors of `q` (including `q` itself when it is
  /// an indexed point), ordered nearest-first (ties: smaller id). Used by
  /// the eps-estimation example (the original DBSCAN paper's 4-dist
  /// heuristic). Convenience wrapper over knn_query.
  [[nodiscard]] std::vector<PointId> knn(std::span<const double> q,
                                         size_t k) const;

  [[nodiscard]] size_t size() const override { return points_.size(); }
  [[nodiscard]] u64 byte_size() const override;
  [[nodiscard]] const char* name() const override { return "kd-tree"; }

  /// Number of internal + leaf nodes (exposed for tests/benches).
  [[nodiscard]] size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] int depth() const { return depth_; }

  /// Capacity of the reached-leaf buffer (512 bytes of stack): the leaves a
  /// query without a neighbor budget collects before it scans them. A
  /// c100k query reaches ~21 leaves; a query that reaches more scans the
  /// full buffer and carries on descending. A neighbor-budgeted query scans
  /// each leaf as it is reached (a batch of one), so it stops descending at
  /// the leaf that fills the budget.
  static constexpr size_t kLeafBatch = 64;

 private:
  struct Node {
    // Leaf: [begin, end) into ids_. Internal: split dim/value + children.
    u32 begin = 0;
    u32 end = 0;
    i32 left = -1;
    i32 right = -1;
    i32 split_dim = -1;
    double split_value = 0.0;
    // Tight bounding box of the subtree, flattened into boxes_ at
    // node_index * 2 * dim, INTERLEAVED per dimension:
    // [lo0, hi0, lo1, hi1, ...]. The interleave keeps the early-exit
    // distance loop inside the first cache line for most pruned nodes.
    u32 box = 0;
    [[nodiscard]] bool is_leaf() const { return left < 0; }
  };

  struct BuildCtx;
  void build_range(i32 idx, u32 begin, u32 end, int depth, BuildCtx& ctx);
  /// Scatter one finalized leaf's rows into the strip-transposed buffer.
  /// (The common-dimensionality leaf path fuses this scatter with the
  /// bounding-box reduction inline in build_range; this standalone version
  /// serves degenerate-spread and very-wide-dimension leaves.)
  void export_leaf_strips(u32 begin, u32 end);

  /// Capacity of range_query_budgeted's fixed descent stack. Max occupancy is
  /// depth_ + 1 (each descent pops one node and pushes its two children),
  /// and with exact-median splits depth_ <= ~log2(n) + 1 <= 33 for 32-bit
  /// point counts — but that bound is a property of the SPLIT POLICY, so
  /// the constructor checks depth_ + 1 against this capacity after every
  /// build rather than trusting the invariant silently (an unbalanced
  /// split policy would otherwise corrupt the stack).
  static constexpr int kQueryStackCap = 64;

  /// Row i of the build permutation: the coordinates of point ids_[i]. The
  /// strip buffer has no contiguous rows, so knn_query's exact distances
  /// (the heap-filling scan and the filter's survivors) gather through the
  /// id permutation — the same doubles bit-for-bit.
  [[nodiscard]] std::span<const double> row(u32 i) const {
    return points_[ids_[i]];
  }

  /// Squared distance from q to the node's bounding box, with an early exit
  /// once the partial sum exceeds `cutoff`: the sum is monotone in d, so
  /// "result > cutoff" is decided identically whether or not the remaining
  /// dimensions are accumulated. Callers must only compare the result
  /// against `cutoff` (prune when greater).
  [[nodiscard]] double box_distance2(const Node& node, std::span<const double> q,
                                     double cutoff) const;

  const PointSet& points_;
  int leaf_size_;
  int depth_ = 0;
  std::vector<PointId> ids_;  // permutation of point ids, bucketed by leaf;
                              // the remap table: position -> original PointId
  std::vector<Node> nodes_;
  std::vector<double> boxes_;  // per node: interleaved [lo, hi] per dim
  // Strip-transposed leaf-order coordinates (see distance_simd.hpp).
  // unique_ptr + explicit length instead of a vector so the build can
  // allocate without a redundant zero-fill (only the final block's padding
  // lanes need zeroing).
  std::unique_ptr<double[]> leaf_coords_;
  size_t leaf_coords_len_ = 0;
  i32 root_ = -1;
};

}  // namespace sdb
