// Approximate k-nearest-neighbor graph — the spatial primitive of the
// high-dimensional KNN-DBSCAN backend.
//
// The kd-tree in src/spatial collapses past d≈20: its box pruning stops
// discriminating (every box is "close" in high dimensions), and a uniform
// grid's 3^d neighborhood explodes. KNN-DBSCAN (Chen
// et al., PAPERS.md) recovers DBSCAN semantics from a kNN graph instead:
// core points fall out of the k-th neighbor distance, connectivity out of
// mutual-kNN edges — and an APPROXIMATE graph, built by NN-descent (Dong et
// al.)-style neighbor refinement, costs O(n * k^2 * rounds) distance
// evaluations instead of O(n^2), independent of dimension. The descent
// starts from a small forest of random-projection trees, as KNN-DBSCAN
// seeds its graph from randomized kd-trees: each row begins as the exact
// nearest of the point's leaf-mates, so the rounds refine a graph that is
// already local instead of one drawn at random.
//
// Graph layout: flat rows of k slots per point — neighbor_ids / neighbor_d2
// — each row sorted ascending by (d2, id) with kNoNeighbor padding. Rows
// never contain the point itself. The exact builder streams the same
// strip-transposed (SoA) snapshot + runtime-dispatched SIMD kernels as the
// spatial indexes (distance_simd.hpp), with the kNN heap-cutoff filter idiom
// from the kd-tree leaf scan. The descent builder scores scattered candidate
// pairs a few at a time with independent scalar accumulators. Both follow
// the kernels' arithmetic contract (ascending-d unfused mul+add), so graph
// distances are bit-identical to the scalar reference on every host.
//
// Determinism: both builders are bit-deterministic for a given (points,
// config) INCLUDING config.threads — exact rows are independent per point;
// each forest tree is built by one task from an RNG keyed by (seed, tree,
// node), and each start row by its own point's task; NN-descent's rounds
// are barriers whose candidate generation reads only the previous round's
// graph while each point's row is updated by exactly one task. digest()
// pins this in tests.
#pragma once

#include <span>
#include <vector>

#include "geom/point_set.hpp"
#include "util/counters.hpp"

namespace sdb::knn {

/// Row padding for points with fewer than k possible neighbors (n-1 < k).
inline constexpr PointId kNoNeighbor = -1;

struct KnnGraphConfig {
  /// Neighbors per point. KNN-DBSCAN needs k >= minpts - 1 to be able to
  /// see any core point (the row plus the point itself is the largest
  /// neighborhood the backend can observe).
  u32 k = 16;

  enum class Build {
    /// Exact rows by brute-force strip scan: O(n^2) evals — the oracle the
    /// descent build is tested against, and the right choice for small n.
    kExact,
    /// NN-descent neighbor refinement: rows start as the nearest leaf-mates
    /// in a random-projection forest, then rounds of "compare me against my
    /// neighbors' neighbors" local joins run until the update rate falls
    /// below termination_frac (or max_rounds). O(n * k^2) per round,
    /// dimension-independent traversal.
    kDescent,
  };
  Build build = Build::kDescent;

  /// Descent: maximum refinement rounds.
  u32 max_rounds = 12;
  /// Descent: per-point cap on the neighbors (forward and reverse) that
  /// participate in a round's local join — NN-descent's sample rate rho*k.
  u32 sample = 16;
  /// Descent: stop when a round improves fewer than this fraction of the
  /// n*k row slots.
  double termination_frac = 0.002;
  /// Seed for the random-projection forest that starts the descent: every
  /// split direction is drawn from it. The rounds draw nothing.
  u64 seed = 42;
  /// Worker threads: 0 = auto (hardware concurrency, at most 16), 1 =
  /// sequential. Builds under 4096 points always run sequentially. Results
  /// are identical for any value; chaos tests pin 1 so fault-plan replay
  /// sees one deterministic site-hit order.
  unsigned threads = 0;
};

class KnnGraph {
 public:
  KnnGraph() = default;
  KnnGraph(size_t n, u32 k)
      : n_(n),
        k_(k),
        ids_(n * k, kNoNeighbor),
        d2_(n * k, 0.0) {}

  [[nodiscard]] size_t size() const { return n_; }
  [[nodiscard]] u32 k() const { return k_; }

  /// Row i's neighbor ids, ascending (d2, id); kNoNeighbor-padded tail.
  [[nodiscard]] std::span<const PointId> row_ids(PointId i) const {
    return {ids_.data() + static_cast<size_t>(i) * k_, k_};
  }
  [[nodiscard]] std::span<const double> row_d2(PointId i) const {
    return {d2_.data() + static_cast<size_t>(i) * k_, k_};
  }
  [[nodiscard]] std::span<PointId> mutable_row_ids(PointId i) {
    return {ids_.data() + static_cast<size_t>(i) * k_, k_};
  }
  [[nodiscard]] std::span<double> mutable_row_d2(PointId i) {
    return {d2_.data() + static_cast<size_t>(i) * k_, k_};
  }

  /// Number of real (non-padding) neighbors in row i.
  [[nodiscard]] u32 row_size(PointId i) const {
    const auto ids = row_ids(i);
    u32 m = 0;
    while (m < k_ && ids[m] != kNoNeighbor) ++m;
    return m;
  }

  /// Squared distance to the k-th neighbor (+inf when the row is short) —
  /// the KNN-DBSCAN core-point statistic.
  [[nodiscard]] double kth_distance2(PointId i) const;

  /// Whether j appears in row i (linear scan; k is small).
  [[nodiscard]] bool has_edge(PointId i, PointId j) const {
    for (const PointId r : row_ids(i)) {
      if (r == j) return true;
      if (r == kNoNeighbor) break;
    }
    return false;
  }

  /// FNV-1a over the row id/d2 bytes — the replay-determinism pin.
  [[nodiscard]] u64 digest() const;

  /// Serialized footprint; prices the pipeline's graph broadcast.
  [[nodiscard]] u64 byte_size() const {
    return ids_.size() * sizeof(PointId) + d2_.size() * sizeof(double) + 16;
  }

 private:
  size_t n_ = 0;
  u32 k_ = 0;
  std::vector<PointId> ids_;
  std::vector<double> d2_;
};

/// Which rows the descent starts from; a checkpoint of partitions computed
/// on one start's graph must not resume into a job on another's, so the
/// kNN backend folds this into its job fingerprint. 1 was seeded random
/// rows; 2 is the random-projection forest.
inline constexpr u32 kDescentStartVersion = 2;

/// One descent refinement round.
struct KnnGraphRoundStats {
  u64 distance_evals = 0;  ///< candidate pairs evaluated
  u64 updates = 0;         ///< row-slot improvements applied
  double wall_s = 0.0;     ///< snapshot, reverse lists and local join
};

/// Build stats (and the work tally the pipeline prices the build from).
struct KnnGraphBuildStats {
  u32 rounds = 0;          ///< refinement rounds executed (0 for exact)
  u64 updates = 0;         ///< row-slot improvements applied (descent)
  u64 distance_evals = 0;  ///< candidate pairs evaluated, start included
  u64 dropped_edges = 0;   ///< candidates skipped by knn.graph.drop_edge
  u64 start_evals = 0;     ///< descent: leaf-mate pairs of the start
  double start_s = 0.0;    ///< descent: forest build and leaf joins
  std::vector<KnnGraphRoundStats> per_round;  ///< descent: one per round
};

/// Build the kNN graph of `points` per `cfg`. Charges one distance_eval per
/// candidate pair evaluated to the calling thread's counter sink (batched,
/// flushed once), mirroring the spatial-index charging rule.
KnnGraph build_knn_graph(const PointSet& points, const KnnGraphConfig& cfg,
                         KnnGraphBuildStats* stats = nullptr);

/// Recall of `approx` against exact rows: the fraction of (point, neighbor)
/// slots of `exact` recovered by `approx`. 1.0 = every row exact.
double graph_recall(const KnnGraph& exact, const KnnGraph& approx);

}  // namespace sdb::knn
