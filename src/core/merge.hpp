// Driver-side merging of partial clusters (Algorithm 4) and the sound
// union-find alternative.
//
// The paper's single pass walks partial clusters in order; for each still-
// "unfinished" cluster it digs out the SEEDs, finds each seed's master
// partial cluster (the one containing the seed as a regular element), merges
// it, and marks statuses. Two soundness gaps follow from the pseudocode, both
// implemented faithfully here so they can be measured (see DESIGN.md §3):
//   * absorbed clusters are marked "finished", so their OWN seeds are never
//     processed — merge chains can be left incomplete;
//   * a seed that is a non-core border member of the master still triggers a
//     merge, which can fuse clusters sequential DBSCAN keeps separate.
//
// MergeStrategy::kUnionFind fixes both: every partial cluster's seeds are
// processed, and a seed only fuses clusters when the seed point is core.
// Both strategies run sequentially on the driver: one job's seed edges are
// too few to pay for a thread pool (DESIGN.md §13).
#pragma once

#include "core/dbscan.hpp"
#include "core/partial_cluster.hpp"
#include "core/partitioners.hpp"
#include "util/counters.hpp"

namespace sdb::dbscan {

enum class MergeStrategy {
  kPaperSinglePass,  ///< Algorithm 4, faithful including its gaps
  kUnionFind,        ///< transitive closure, core-seeds-only fusion
};

const char* merge_strategy_name(MergeStrategy s);

struct MergeOptions {
  MergeStrategy strategy = MergeStrategy::kUnionFind;
  /// Drop partial clusters with fewer members before merging (the paper's
  /// small-cluster filter for the 1M-point runs). 0 = keep all.
  u64 min_partial_cluster_size = 0;
};

struct MergeStats {
  u64 partial_clusters = 0;        ///< m, after filtering
  u64 filtered_partial_clusters = 0;
  u64 max_partial_cluster_size = 0;  ///< K in the paper's cost model
  u64 seeds_examined = 0;
  u64 merges = 0;
  u64 border_claims = 0;  ///< foreign noise/unclaimed points adopted via seeds
};

struct MergeResult {
  Clustering clustering;
  MergeStats stats;
  WorkCounters counters;  ///< driver merge work, for sim pricing
};

/// Merge the per-partition results into a global clustering of `num_points`
/// points.
MergeResult merge_partial_clusters(
    const std::vector<LocalClusterResult>& locals, u64 num_points,
    const MergeOptions& options);

}  // namespace sdb::dbscan
