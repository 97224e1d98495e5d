// The executor-side kernel: Algorithm 2 (local clustering) + Algorithm 3
// (SEED placement).
//
// Runs entirely inside one executor over one partition, with zero peer
// communication — the paper's headline design. Globally-exact neighborhoods
// come from the broadcast spatial index over ALL points; locality comes from
// expanding only points owned by this partition. Foreign points reached by
// the frontier become SEEDs.
//
// The sweep itself is core/partition_bfs.hpp, shared with the KNN backend's
// kernel (knn::local_knn_dbscan); local_dbscan supplies it the exact
// neighborhood source, a range query over the broadcast index. The paper's
// Section III.B structures are priced, not run: the sweep keeps one state
// word per point id where the paper keeps a Hashtable for the
// visited/processed check, and a vector frontier where it keeps a
// LinkedList queue, and charges each put/containsKey the Hashtable would
// make as a hash_op and each add/remove as a queue_op. A running task holds
// 4 bytes per point of the whole dataset.
#pragma once

#include "core/dbscan.hpp"
#include "core/partial_cluster.hpp"
#include "core/partitioners.hpp"
#include "geom/point_set.hpp"
#include "spatial/spatial_index.hpp"

namespace sdb::dbscan {

/// How SEEDs are placed when the frontier reaches a foreign point.
enum class SeedStrategy {
  /// The paper's Algorithm 3: at most ONE seed per foreign partition per
  /// partial cluster ("if place one seed already ... continue"). Cheaper,
  /// but can under-merge when one partial cluster touches two distinct
  /// clusters of the same foreign partition — see tests/test_seed_strategies.
  kOnePerPartition,
  /// Record every distinct foreign point reached. Complete: guarantees the
  /// merge graph contains every adjacency the sequential algorithm sees.
  kAllForeign,
};

const char* seed_strategy_name(SeedStrategy s);

struct LocalDbscanConfig {
  DbscanParams params;
  SeedStrategy seed_strategy = SeedStrategy::kAllForeign;
  QueryBudget budget;  ///< "pruning branches" approximation (r1m runs)
};

/// Cluster the points of partition `partition` (per `partitioning`) using a
/// spatial index over the full dataset. Pure function of its inputs —
/// exactly what makes it a valid RDD task body.
LocalClusterResult local_dbscan(const PointSet& points,
                                const SpatialIndex& index,
                                const Partitioning& partitioning,
                                PartitionId partition,
                                const LocalDbscanConfig& config);

}  // namespace sdb::dbscan
