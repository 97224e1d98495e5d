// Abstract eps-neighborhood index.
//
// DBSCAN (Algorithm 1/2 in the paper) only needs one spatial primitive:
// "all points within eps of q". The paper uses a kd-tree broadcast to every
// executor; this interface lets the clustering code run against the kd-tree
// or the naive O(n^2) scan, so the paper's complexity claims (Section V.B)
// can be measured rather than asserted, and the scan is the tests'
// reference.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "geom/point_set.hpp"
#include "util/common.hpp"

namespace sdb {

/// Optional limits for approximate ("pruning branches") queries used by the
/// paper for the 1M-point runs. Zero means unlimited.
///
/// Approximation contract (what a truncated query does and does not
/// promise):
///
///  * DETERMINISM. Every index has a fixed candidate traversal order — the
///    kd-tree descends the child containing the query first (its wide nodes
///    order their slots the same way) and scans leaf buckets in
///    build-permutation order; brute force scans ids ascending. A
///    budgeted query returns exactly the first matches of that traversal
///    until a budget fires, so repeated invocations with the same index,
///    query, and budget return the *identical* sequence. The kd-tree's order depends only on the
///    data (median splits are deterministic), not on how many threads built
///    the tree.
///  * CHARGES. A query charges one distance_eval per candidate row its
///    traversal visits: under a neighbor budget, the rows up to and
///    including the one that fills it, and no row after it — whatever the
///    SIMD scan evaluated past that row. tree_nodes counts the nodes
///    visited: wide nodes on the kd-tree, one box-kernel call each (its
///    leaves sit in their slots and are not nodes). A node budget stops
///    the query before the node past the cap, so a capped query charges at
///    most max_nodes.
///  * SUBSET. Budgeted results are always a subset of the exact result set
///    (enforced by test_index_properties BudgetLaws).
///  * NO SYMMETRY. Exact eps-neighborhoods are symmetric (A within eps of B
///    iff B within eps of A); truncated ones are NOT. The budget can fire
///    while scanning a dense region around A before reaching B, yet B's own
///    query — a different traversal — may still report A. Consumers that
///    derive core status from budgeted neighbor counts (local_dbscan under
///    the paper's r1m configuration) therefore see an asymmetric relation:
///    border/core decisions can differ from the exact run, and cluster
///    results are approximate in exactly the way the paper's Section V
///    "pruning branches" runs are. Anything needing symmetric neighborhoods
///    must run with budget.exact().
struct QueryBudget {
  /// Stop reporting once this many neighbors were found (0 = exact).
  u64 max_neighbors = 0;
  /// Stop descending once this many tree nodes were visited (0 = exact):
  /// the query stops before it would visit one more. The kd-tree counts
  /// its wide nodes. Brute force has no nodes and ignores it.
  u64 max_nodes = 0;

  [[nodiscard]] bool exact() const {
    return max_neighbors == 0 && max_nodes == 0;
  }
};

/// One kNN result row: squared distance + point id. knn_query returns hits
/// in ascending (d2, id) order.
struct KnnHit {
  double d2 = 0.0;
  PointId id = 0;
  friend bool operator==(const KnnHit&, const KnnHit&) = default;
};

class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  /// Append the ids of all points within `eps` of `q` to `out` (out is NOT
  /// cleared). Includes the query point itself if it is in the dataset.
  /// The unbudgeted form of range_query_budgeted, the one virtual entry.
  void range_query(std::span<const double> q, double eps,
                   std::vector<PointId>& out) const {
    range_query_budgeted(q, eps, QueryBudget{}, out);
  }

  /// Range query under `budget` (see the approximation contract on
  /// QueryBudget); with budget.exact() it returns every point within eps.
  virtual void range_query_budgeted(std::span<const double> q, double eps,
                                    const QueryBudget& budget,
                                    std::vector<PointId>& out) const = 0;

  /// k-nearest-neighbor query: append the k nearest indexed points to `out`
  /// (including the query point itself when it is indexed), ascending by
  /// (d2, id).
  ///
  /// DETERMINISTIC TIE-BREAK. Ties at exactly the k-th distance are broken
  /// toward the SMALLER point id: the result is the k smallest (d2, id)
  /// pairs under lexicographic order. That makes the exact result unique —
  /// independent of index structure, leaf size, build thread count, and
  /// SIMD variant — so every index returns byte-identical hit lists for the
  /// same dataset (regression-tested across both in test_knn_queries).
  ///
  /// COUNTER CONTRACT (the same on the kd-tree and brute force):
  ///   * distance_evals: exactly ONE per candidate row the traversal
  ///     examines, charged whether or not the row enters the heap, and
  ///     regardless of SIMD partial-distance abandonment or kernel cutoff
  ///     filtering (both are implementation details of the evaluation, as
  ///     in range queries). A traversal forced to examine every row (k >=
  ///     n, or a single-leaf layout) charges exactly n on every index.
  ///   * tree_nodes: one per tree node the traversal visits — on the
  ///     kd-tree a wide node, whose child-box distances one box-kernel call
  ///     computes on entry (zero for brute force, which has no nodes).
  ///   * All tallies are accumulated locally and flushed once per query
  ///     (counters::add), like range_query.
  ///
  /// BUDGET SEMANTICS for kNN:
  ///   * budget.max_nodes bounds the nodes visited, exactly as in
  ///     range queries: the traversal stops before the node past the cap,
  ///     so it charges at most max_nodes, and the result is the EXACT kNN
  ///     (with the same tie-break)
  ///     of the rows actually examined — deterministic, because traversal
  ///     order is fixed (see the approximation contract above), but NOT
  ///     necessarily a subset of the unbudgeted result's ids beyond the
  ///     prefix property of the traversal. Indexes without nodes (brute
  ///     force) ignore it and are always exact.
  ///   * budget.max_neighbors is IGNORED: k itself is the result-size
  ///     bound, and truncating below k would silently change kNN semantics
  ///     (regression-tested: results are identical for any max_neighbors).
  virtual void knn_query(std::span<const double> q, size_t k,
                         const QueryBudget& budget,
                         std::vector<KnnHit>& out) const = 0;

  /// Number of indexed points.
  [[nodiscard]] virtual size_t size() const = 0;

  /// Approximate serialized size in bytes; prices the paper's broadcast of
  /// the kd-tree to every executor.
  [[nodiscard]] virtual u64 byte_size() const = 0;

  /// Human-readable name used in bench output.
  [[nodiscard]] virtual const char* name() const = 0;
};

}  // namespace sdb
