// Disagreement-bound harness: quantifies how far KNN-DBSCAN's graph
// approximation lands from exact DBSCAN — the exact path's parity checks
// extended to a backend that is allowed to disagree, but only within an
// asserted bound.
//
// Exact DBSCAN must agree point-for-point whatever the index or the
// partitioning (the kd-tree and brute force return the same hits,
// tests/test_index_properties; partitioned runs match sequential DBSCAN,
// tests/test_equivalence_property). KNN-DBSCAN's only approximation is the
// graph (missing rows hide in-eps edges), so its clustering may differ. The
// harness measures that gap with:
//   * the adjusted Rand index (chance-corrected; the plain Rand index
//     saturates near 1 for many-cluster partitions and would hide real
//     disagreement),
//   * the label-disagreement count under greedy best-overlap cluster
//     matching, and
//   * core / noise set symmetric differences.
// Tests and bench_knn assert bounds on these; well-separated fixtures with
// an exact graph must score ZERO disagreement (the parity case).
#pragma once

#include "core/dbscan.hpp"
#include "geom/point_set.hpp"
#include "knn/knn_backend.hpp"

namespace sdb::knn {

struct DisagreementReport {
  u64 points = 0;
  double ari = 1.0;  ///< adjusted_rand_index(exact, approx), noise=singletons

  /// Points clustered in both but outside the greedy best-overlap matching
  /// of exact clusters onto approx clusters (an upper bound on the optimal
  /// matching's error — pessimistic, never optimistic).
  u64 label_disagreements = 0;
  u64 noise_mismatches = 0;  ///< noise in exactly one of the two
  u64 core_mismatches = 0;   ///< core in exactly one (0 when masks match)

  /// Fraction of points involved in any disagreement.
  [[nodiscard]] double disagreement_frac() const {
    if (points == 0) return 0.0;
    return static_cast<double>(label_disagreements + noise_mismatches) /
           static_cast<double>(points);
  }
  /// The asserted bound: ARI at least `min_ari` AND no more than
  /// `max_disagreement_frac` of points disagreeing.
  [[nodiscard]] bool within(double min_ari,
                            double max_disagreement_frac) const {
    return ari >= min_ari && disagreement_frac() <= max_disagreement_frac;
  }
};

/// Compare two clusterings of the same dataset (exact reference first).
/// Core masks are optional (empty spans skip the core_mismatches term).
DisagreementReport measure_disagreement(const dbscan::Clustering& exact,
                                        const dbscan::Clustering& approx,
                                        std::span<const char> exact_core = {},
                                        std::span<const char> approx_core = {});

/// End-to-end harness: run exact sequential DBSCAN (kd-tree) and single-node
/// KNN-DBSCAN over `points` with the same (eps, minpts), and measure the
/// gap. This is what the knn test suite and bench_knn assert bounds on.
DisagreementReport knn_vs_exact(const PointSet& points,
                                const dbscan::DbscanParams& params,
                                const KnnGraphConfig& knn_config);

}  // namespace sdb::knn
