// R-tree with R*-flavored heuristics (Beckmann et al. 1990) — the paper's
// reference [2], cited as the alternative spatial access method to the
// kd-tree.
//
// Dynamic balanced tree of axis-aligned rectangles:
//   * insert descends by least-enlargement (ties: least area), R*'s
//     choose-subtree for point data;
//   * node overflow splits along the axis with minimum total margin, at the
//     position with minimum overlap (R*'s split), no reinsertion pass;
//   * range queries descend every child whose rectangle intersects the
//     query ball.
// Unlike the kd-tree (bulk-built, static), the R-tree supports incremental
// insertion — which is what makes it interesting next to
// core/incremental.hpp, and why the paper's citation matters.
#pragma once

#include "spatial/spatial_index.hpp"

namespace sdb {

class RTree final : public SpatialIndex {
 public:
  /// Build by inserting every point of `points` (kept by reference).
  /// `max_entries` is the node fan-out M; min fill is M * 0.4 (R*'s m).
  explicit RTree(const PointSet& points, int max_entries = 16);

  void range_query_budgeted(std::span<const double> q, double eps,
                            const QueryBudget& budget,
                            std::vector<PointId>& out) const override;

  /// Unified kNN (see SpatialIndex::knn_query): depth-first descent with
  /// children visited in ascending (rect distance, child index) order and
  /// subtrees pruned when their rectangle's distance strictly exceeds the
  /// current k-th (d2, id) heap top. Same charging rule as the kd-tree: one
  /// distance_eval per leaf entry examined, one tree_node per node visited,
  /// flushed once per query.
  void knn_query(std::span<const double> q, size_t k,
                 const QueryBudget& budget,
                 std::vector<KnnHit>& out) const override;

  [[nodiscard]] size_t size() const override { return points_.size(); }
  [[nodiscard]] u64 byte_size() const override;
  [[nodiscard]] const char* name() const override { return "r-tree"; }

  [[nodiscard]] size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] int height() const { return height_; }

  /// Structural invariants (fill factors, rectangle containment); used by
  /// tests. Aborts on violation.
  void check_invariants() const;

 private:
  struct Node {
    bool leaf = true;
    // Bounding rectangle, flattened: rect_lo/rect_hi into rects_.
    u32 rect = 0;
    // Children: node ids for internal nodes, point ids for leaves.
    std::vector<i32> children;
  };

  // Rectangle helpers over the flat rects_ array.
  [[nodiscard]] double* rect_lo(u32 rect) { return rects_.data() + rect; }
  [[nodiscard]] double* rect_hi(u32 rect) {
    return rects_.data() + rect + dim_;
  }
  [[nodiscard]] const double* rect_lo(u32 rect) const {
    return rects_.data() + rect;
  }
  [[nodiscard]] const double* rect_hi(u32 rect) const {
    return rects_.data() + rect + dim_;
  }
  u32 alloc_rect();
  void rect_set_point(u32 rect, std::span<const double> p);
  void rect_extend(u32 dst, u32 src);
  [[nodiscard]] double rect_area(u32 rect) const;
  [[nodiscard]] double rect_margin(u32 rect) const;
  [[nodiscard]] double rect_enlargement(u32 rect, std::span<const double> p) const;
  [[nodiscard]] double rect_distance2(u32 rect, std::span<const double> q) const;
  [[nodiscard]] u32 rect_of_entry(const Node& node, size_t i) const;

  void insert(PointId id);
  /// Returns the id of a new sibling if the child split, else -1.
  i32 insert_recursive(i32 node_id, PointId id);
  i32 split(i32 node_id);
  void recompute_rect(i32 node_id);

  void query_node(i32 node_id, std::span<const double> q, double eps2,
                  const QueryBudget& budget, u64& visited, u64& evals,
                  u64& found, bool& stopped, std::vector<PointId>& out) const;

  void check_node(i32 node_id, int depth, int leaf_depth) const;

  const PointSet& points_;
  int dim_;
  int max_entries_;
  int min_entries_;
  std::vector<Node> nodes_;
  std::vector<double> rects_;
  i32 root_ = -1;
  int height_ = 0;
};

}  // namespace sdb
