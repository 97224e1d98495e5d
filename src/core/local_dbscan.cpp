#include "core/local_dbscan.hpp"

#include "core/partition_bfs.hpp"

namespace sdb::dbscan {

const char* seed_strategy_name(SeedStrategy s) {
  switch (s) {
    case SeedStrategy::kOnePerPartition: return "one-per-partition";
    case SeedStrategy::kAllForeign: return "all-foreign";
  }
  return "?";
}

LocalClusterResult local_dbscan(const PointSet& points,
                                const SpatialIndex& index,
                                const Partitioning& partitioning,
                                PartitionId partition,
                                const LocalDbscanConfig& config) {
  // The exact source (Algorithm 2 lines 6 and 15): a range query over the
  // broadcast kd-tree. q is core iff its neighborhood reaches minpts, and
  // the sweep enqueues all of it.
  return partition_bfs(
      partitioning, partition, config.seed_strategy,
      [&](PointId q, std::vector<PointId>& out) {
        index.range_query_budgeted(points[q], config.params.eps,
                                   config.budget, out);
        return static_cast<i64>(out.size()) >= config.params.minpts;
      });
}

}  // namespace sdb::dbscan
