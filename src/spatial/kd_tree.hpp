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
// Wide nodes: the binary tree is then collapsed into 8-way wide nodes and
// freed, so queries walk one layout. Wide-node boundaries sit at binary
// nodes whose height (longest path to a leaf) is a multiple of 3, so the
// bottom wide nodes hold 8 leaves each and the root takes the remainder; a
// wide node never spans more than 3 binary levels. Each of its up to 8
// slots holds a leaf [begin, end) or a child wide node, with the slot's
// tight box stored dimension-major (lo[8], hi[8] per dimension) for the
// dispatched box kernel (distance_simd.hpp); the node also keeps the split
// planes of the binary levels it collapsed. An empty slot has the box
// lo = +inf, hi = -inf and is off in the node's live-slot mask.
// Layout: the tree keeps a strip-transposed (SoA) copy of the coordinates
// in leaf-traversal order — blocks of kDistanceStrip points stored
// dimension-major (see distance_simd.hpp) — filled IN PLACE as each leaf is
// finalized during the build, so the packed layout costs the leaf stores
// only, not a second full pass. ids_ doubles as the remap table back to
// original PointIds.
// Query: one box-kernel call per visited wide node tests all its child
// boxes, with no early exit and no data-dependent branch. A leaf's box lies
// inside every ancestor's box, and the per-dimension excess, its square and
// their running sum only grow on the way down (in IEEE arithmetic too), so
// a leaf is reached iff its own box is within eps: skipping the collapsed
// levels' box tests changes nothing. The collapsed split planes give 7 bits
// (q past each plane or not), and a 128-entry table maps them to the slots
// in the binary descent's near-first order, so the leaves are reached in
// the same order too. Reached leaves are recorded in visit order into a
// fixed stack buffer and each is scanned with one strip_scan call
// (distance.hpp) of the runtime-dispatched SIMD range scan, which writes
// the leaf's hit positions for the ids_ remap. Without a neighbor budget a
// full buffer is scanned before the descent goes on; with one, each leaf is
// scanned as it is reached, and the scan stops at the exact row that fills
// the budget. Hits come in visit order, ascending position within a leaf,
// and each scanned row up to the stop is charged one distance_eval; each
// visited wide node is charged one tree_node. The optional QueryBudget
// implements the paper's "kd-tree with pruning branches" approximation used
// for the 1M-point experiments (it bounds the neighbor count / node visits,
// trading exactness for time — see the approximation contract on
// QueryBudget in spatial_index.hpp).
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
  /// convert expensive per-node box tests into range-scan lanes that cost
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

  /// Number of wide nodes, the nodes queries visit (exposed for
  /// tests/benches).
  [[nodiscard]] size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] size_t leaf_count() const { return leaves_.size(); }
  /// Height of the median-split build, in binary levels: its longest
  /// root-to-leaf path.
  [[nodiscard]] int depth() const { return depth_; }

  /// Slots per wide node: the child boxes one box-kernel call tests
  /// (kBoxFanout, distance_simd.hpp).
  static constexpr size_t kFanout = 8;

  /// Capacity of the reached-leaf buffer (512 bytes of stack): the leaves a
  /// query without a neighbor budget collects before it scans them. A
  /// c100k query reaches ~21 leaves; a query that reaches more scans the
  /// full buffer and carries on descending. A neighbor-budgeted query scans
  /// each leaf as it is reached (a batch of one), so it stops descending at
  /// the leaf that fills the budget.
  static constexpr size_t kLeafBatch = 64;

 private:
  /// Three binary levels per wide node: 2^3 = kFanout slots.
  static constexpr u32 kLevels = 3;
  static_assert(kFanout == size_t{1} << kLevels);

  struct WideNode {
    /// A child wide node's index into nodes_, or kLeafSlot | a leaf's
    /// index into leaves_. What lies k binary levels below the node's top,
    /// on path bits b (left 0, right 1), sits in slot b << (3 - k).
    u32 slot[kFanout];
    /// The collapsed binary levels' split planes in heap order: plane 0
    /// splits the top, planes 1-2 its children, 3-6 its grandchildren. A
    /// plane with no binary node behind it (dim 0, value 0) only orders
    /// empty slots.
    double plane_value[kFanout - 1];
    u32 plane_dim[kFanout - 1];
    /// Bit s set iff slot s holds a leaf or a child wide node.
    u32 live;
  };
  struct LeafRange {
    u32 begin;
    u32 end;
  };

  struct BuildCtx;
  void build_range(i32 idx, u32 begin, u32 end, BuildCtx& ctx);
  /// Scatter one finalized leaf's rows into the strip-transposed buffer.
  /// (The common-dimensionality leaf path fuses this scatter with the
  /// bounding-box reduction inline in build_range; this standalone version
  /// serves degenerate-spread and very-wide-dimension leaves.)
  void export_leaf_strips(u32 begin, u32 end);
  /// Append the wide node whose top is binary node `top`, at wide level
  /// `level` (the root is level 1), then — depth-first, in slot order —
  /// the wide nodes and leaves below it. Returns the node's index.
  u32 collapse(BuildCtx& ctx, u32 top, int level);

  /// Capacity of range_query_budgeted's fixed descent stack. Each visited
  /// wide node pops one entry and pushes at most kFanout, so occupancy is
  /// at most 7 x (wide depth) + 1; median splits keep the wide depth near
  /// log2(n) / 3 + 1, but that is a property of the SPLIT POLICY, so the
  /// constructor checks the bound against this capacity after every build
  /// rather than trusting the invariant silently (an unbalanced split
  /// policy would otherwise corrupt the stack).
  static constexpr int kQueryStackCap = 128;
  static constexpr u32 kLeafSlot = 0x80000000u;

  /// Row i of the build permutation: the coordinates of point ids_[i]. The
  /// strip buffer has no contiguous rows, so knn_query's exact distances
  /// (the heap-filling scan and the filter's survivors) gather through the
  /// id permutation — the same doubles bit-for-bit.
  [[nodiscard]] std::span<const double> row(u32 i) const {
    return points_[ids_[i]];
  }

  /// Bit p set iff q lies past the node's split plane p: the side the
  /// binary descent took first.
  static u32 plane_bits(const WideNode& node, std::span<const double> q);

  /// The node's child boxes in the box kernel's layout.
  [[nodiscard]] const double* node_boxes(u32 node) const {
    return boxes_.data() +
           static_cast<size_t>(node) * 2 * kFanout *
               static_cast<size_t>(points_.dim());
  }

  const PointSet& points_;
  int leaf_size_;
  int depth_ = 0;
  std::vector<PointId> ids_;  // permutation of point ids, bucketed by leaf;
                              // the remap table: position -> original PointId
  std::vector<WideNode> nodes_;  // preorder; the root is nodes_[0]
  std::vector<double> boxes_;    // per wide node: lo[8], hi[8] per dim
  std::vector<LeafRange> leaves_;
  // Strip-transposed leaf-order coordinates (see distance_simd.hpp).
  // unique_ptr + explicit length instead of a vector so the build can
  // allocate without a redundant zero-fill (only the final block's padding
  // lanes need zeroing).
  std::unique_ptr<double[]> leaf_coords_;
  size_t leaf_coords_len_ = 0;
};

}  // namespace sdb
