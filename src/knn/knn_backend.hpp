// KNN-DBSCAN — DBSCAN semantics recovered from a kNN graph (Chen et al.,
// PAPERS.md), the pipeline's high-dimensional backend.
//
// Exact DBSCAN needs eps-range queries, and every exact spatial index
// collapses past d≈20. KNN-DBSCAN substitutes the kNN graph:
//
//   * CORE: p is core iff |N_eps(p)| >= minpts, and the largest in-eps
//     neighborhood the graph can observe is p itself plus its row, so
//     p is core iff 1 + |{j in row(p) : d2(p,j) <= eps^2}| >= minpts.
//     This requires k >= minpts - 1 (checked at build).
//   * CONNECTIVITY: two core points are density-connected through a MUTUAL
//     in-eps edge only (each appears in the other's row). Mutuality makes
//     the core-core relation symmetric — without it, approximate rows would
//     make reachability depend on traversal direction and the partitioned
//     sweep could diverge from the single-node one.
//   * BORDER: a non-core point joins a cluster through an in-eps edge in
//     EITHER direction to one of its cores (a border point need not appear
//     in the core's row; its own row pointing at the core is just as valid
//     evidence of d <= eps).
//
// The same rule drives both the single-node reference (knn_dbscan) and the
// partitioned executor kernel (local_knn_dbscan), so the two engines agree
// exactly; approximation error relative to true DBSCAN enters only through
// the graph build and is measured by the disagreement harness
// (knn/disagreement.hpp). The executor kernel is the exact path's partition
// sweep (core/partition_bfs.hpp) over an eps-graph neighborhood source;
// knn_dbscan stays a separate BFS, so the reference shares no code with
// what it checks.
#pragma once

#include <cstdint>

#include "core/dbscan.hpp"
#include "core/local_dbscan.hpp"
#include "core/partial_cluster.hpp"
#include "core/partitioners.hpp"
#include "knn/knn_graph.hpp"

namespace sdb::knn {

/// The in-eps adjacency + core facts derived from a kNN graph for one
/// (eps, minpts): a CSR over undirected in-eps edges, each tagged with the
/// direction(s) it was observed in, plus the global core mask. Built once on
/// the driver and broadcast — executors share one consistent view of
/// coreness, which is what lets merge_partial_clusters run unchanged.
class KnnEpsGraph {
 public:
  /// Edge direction flags: kFwd = target appears in source's row,
  /// kRev = source appears in target's row, kMutual = both.
  static constexpr std::uint8_t kFwd = 1;
  static constexpr std::uint8_t kRev = 2;
  static constexpr std::uint8_t kMutual = kFwd | kRev;

  /// Derive the eps-graph from `graph` rows. SDB_CHECKs
  /// k >= minpts - 1 (smaller k can never certify a core point).
  static KnnEpsGraph build(const KnnGraph& graph,
                           const dbscan::DbscanParams& params);

  [[nodiscard]] size_t size() const { return n_; }
  [[nodiscard]] i64 minpts() const { return minpts_; }

  [[nodiscard]] bool is_core(PointId i) const {
    return core_[static_cast<size_t>(i)] != 0;
  }
  [[nodiscard]] const std::vector<char>& core_mask() const { return core_; }
  [[nodiscard]] u64 num_core() const;

  /// Row i's in-eps neighbors, ascending by id, with parallel flags.
  [[nodiscard]] std::span<const PointId> neighbors(PointId i) const {
    const auto b = offsets_[static_cast<size_t>(i)];
    return {targets_.data() + b, offsets_[static_cast<size_t>(i) + 1] - b};
  }
  [[nodiscard]] std::span<const std::uint8_t> edge_flags(PointId i) const {
    const auto b = offsets_[static_cast<size_t>(i)];
    return {flags_.data() + b, offsets_[static_cast<size_t>(i) + 1] - b};
  }

  [[nodiscard]] u64 num_edges() const { return targets_.size(); }

  /// FNV-1a over the CSR + core mask — pins executor-view consistency and
  /// faulted-build replay in tests.
  [[nodiscard]] u64 digest() const;

  /// Serialized footprint; prices the pipeline's broadcast.
  [[nodiscard]] u64 byte_size() const {
    return offsets_.size() * sizeof(u64) + targets_.size() * sizeof(PointId) +
           flags_.size() + core_.size() + 32;
  }

 private:
  size_t n_ = 0;
  i64 minpts_ = 0;
  std::vector<u64> offsets_;    ///< n + 1 row offsets
  std::vector<PointId> targets_;
  std::vector<std::uint8_t> flags_;
  std::vector<char> core_;
};

/// Single-node KNN-DBSCAN reference: BFS over the eps-graph in ascending
/// point order, clusters numbered in discovery order, borders claimed by
/// the first cluster to reach them. Deterministic; the partitioned engine
/// is tested against it.
dbscan::Clustering knn_dbscan(const KnnEpsGraph& graph);

struct LocalKnnDbscanConfig {
  dbscan::SeedStrategy seed_strategy = dbscan::SeedStrategy::kAllForeign;
};

/// Executor kernel of the KNN backend: local_dbscan's partition sweep
/// (core/partition_bfs.hpp) with the broadcast eps-graph as its
/// neighborhood source in place of the broadcast spatial index. Same
/// per-point state, Queue and SEED placement, same LocalClusterResult wire
/// shape, so codec / checkpoint / merge machinery is reused unchanged.
/// Coreness comes from the graph's global mask (never recomputed locally),
/// which keeps every executor's facts mutually consistent for the merge; a
/// core point enqueues the row entries that pass the expansion rule.
dbscan::LocalClusterResult local_knn_dbscan(
    const KnnEpsGraph& graph, const dbscan::Partitioning& partitioning,
    PartitionId partition, const LocalKnnDbscanConfig& config);

}  // namespace sdb::knn
