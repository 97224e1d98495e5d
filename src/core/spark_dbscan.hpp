// SparkDbscan — the paper's complete pipeline (Algorithm 2) on minispark.
//
// Driver:  read points (optionally from MiniDfs as text), build the kd-tree,
//          broadcast {kd-tree + points, eps, minpts, partition map}.
// Executors (one foreachPartition job, no peer communication, no shuffle):
//          run local_dbscan over their partition, ship partial clusters back
//          through an accumulator.
// Driver:  dig out SEEDs and merge partial clusters (Algorithm 4 or the
//          union-find variant, both single-threaded; see core/merge.hpp)
//          into the global clustering.
//
// Every phase is measured on both clocks; the report carries exactly the
// series the paper's Figures 5, 6 and 8 plot. The executor job runs its
// tasks on ClusterConfig::host_threads host threads; the labels and every
// simulated-clock figure are the same at any thread count.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/codec.hpp"
#include "core/dbscan.hpp"
#include "core/local_dbscan.hpp"
#include "core/merge.hpp"
#include "core/partitioners.hpp"
#include "dfs/mini_dfs.hpp"
#include "knn/knn_graph.hpp"
#include "minispark/spark_context.hpp"

namespace sdb::dbscan {

/// Which neighborhood machinery the pipeline runs on.
enum class DbscanBackend {
  /// Exact eps-range queries over the broadcast kd-tree — the paper's
  /// design, and exact at any dimension it can afford.
  kExact,
  /// KNN-DBSCAN (knn/knn_backend.hpp): the driver builds an approximate kNN
  /// graph, derives the in-eps graph + global core mask, and broadcasts
  /// THAT; executors run the same partitioned BFS over graph rows. The
  /// high-dimensional backend — build cost is dimension-independent where
  /// exact tree queries degenerate to linear scans past d~20.
  kKnn,
};

const char* backend_name(DbscanBackend backend);

struct SparkDbscanConfig {
  DbscanParams params;
  DbscanBackend backend = DbscanBackend::kExact;
  /// kNN graph build parameters (backend == kKnn only). knn.k must be
  /// >= params.minpts - 1.
  knn::KnnGraphConfig knn;
  /// Number of data partitions (the paper runs partitions == cores).
  /// 0 = the simulated cluster's total cores.
  u32 partitions = 0;
  PartitionerKind partitioner = PartitionerKind::kBlock;
  SeedStrategy seed_strategy = SeedStrategy::kAllForeign;
  MergeStrategy merge_strategy = MergeStrategy::kUnionFind;
  /// Approximate kd-tree search ("pruning branches", used for r1m).
  QueryBudget budget;
  /// Worker threads for the driver's kd-tree build (0 = auto, 1 =
  /// sequential). Affects wall time only: the tree structure, the query
  /// results, and the simulated clock are identical either way.
  unsigned index_build_threads = 0;
  /// Drop partial clusters smaller than this before merging (r1m runs).
  u64 min_partial_cluster_size = 0;
  /// Wire format for the partial clusters shipped via the accumulator
  /// (Section IV.B serialization discussion; see core/codec.hpp).
  Codec codec = Codec::kRaw;
  u64 seed = 42;
  /// Directory for crash-consistent job checkpoints (empty = durability
  /// off). Each accepted partition result is committed to disk as it
  /// arrives (see minispark/job_checkpoint.hpp), so a driver death loses at
  /// most the in-flight partitions.
  std::string checkpoint_dir;
  /// With checkpoint_dir set: recover committed partition results left by a
  /// previous (crashed) run of the same job fingerprint, execute only the
  /// missing partitions, and resume the merge. false wipes prior state and
  /// checkpoints from scratch.
  bool resume = false;
};

struct SparkDbscanReport {
  Clustering clustering;
  MergeStats merge_stats;

  // --- simulated-clock phase times (seconds) ---
  double sim_read_s = 0.0;       ///< read file + transform into Point RDDs (Δ)
  double sim_tree_s = 0.0;       ///< kd-tree construction in the driver
  double sim_broadcast_s = 0.0;  ///< shipping tree + params to executors
  double sim_executor_s = 0.0;   ///< executor phase makespan
  double sim_executor_total_s = 0.0;  ///< sum of task times (serial exec work)
  double sim_collect_s = 0.0;    ///< accumulator transfer back to driver
  double sim_merge_s = 0.0;      ///< Algorithm 4 / union-find merge

  // --- wall-clock phase times (seconds of real host time) ---
  double wall_read_s = 0.0;      ///< DFS read + text parse (run_from_dfs)
  double wall_index_s = 0.0;     ///< index (or kNN graph) build
  double wall_executor_s = 0.0;  ///< the executor job: local DBSCAN + encode
  double wall_merge_s = 0.0;     ///< decode + merge in the driver
  double wall_s = 0.0;           ///< whole pipeline, read + parse included
  /// Each executed task's wall time, in task order: one entry per partition
  /// this run computed (none for partitions resumed from a checkpoint).
  std::vector<double> wall_task_s;

  u64 partial_clusters = 0;      ///< m (the Figure 6 right-axis series)
  u64 broadcast_bytes = 0;
  u64 accumulator_bytes = 0;

  // --- KNN backend (backend == kKnn) ---
  u64 knn_graph_rounds = 0;  ///< NN-descent rounds (0 for the exact build)
  u64 knn_graph_evals = 0;   ///< distance evals spent building the graph
  u64 knn_eps_edges = 0;     ///< in-eps edges in the broadcast eps-graph
  u64 knn_core_points = 0;   ///< global core count under the graph mask

  // --- durability (checkpoint_dir set) ---
  u64 job_fingerprint = 0;       ///< deterministic job identity
  u64 resumed_partitions = 0;    ///< results recovered from the checkpoint
  u64 executed_partitions = 0;   ///< results computed by this run
  u64 checkpoint_saves = 0;      ///< records committed by this run

  /// Driver time as the paper splits it: everything not in executors.
  [[nodiscard]] double sim_driver_s() const {
    return sim_read_s + sim_tree_s + sim_broadcast_s + sim_collect_s +
           sim_merge_s;
  }
  [[nodiscard]] double sim_total_s() const {
    return sim_driver_s() + sim_executor_s;
  }
};

class SparkDbscan {
 public:
  SparkDbscan(minispark::SparkContext& context, SparkDbscanConfig config)
      : ctx_(context), config_(std::move(config)) {}

  /// Cluster an in-memory dataset (generation cost excluded from timings,
  /// matching the paper, which times from HDFS read onward with Δ for the
  /// read/transform phase estimated from byte volume).
  SparkDbscanReport run(const PointSet& points);

  /// Full paper pipeline: read `path` from the DFS as text, parse points,
  /// then cluster. The read/parse really happens and is priced as Δ.
  SparkDbscanReport run_from_dfs(const dfs::MiniDfs& dfs,
                                 const std::string& path);

 private:
  SparkDbscanReport run_impl(const PointSet& points, double sim_read_s,
                             double wall_read_s);

  minispark::SparkContext& ctx_;
  SparkDbscanConfig config_;
};

}  // namespace sdb::dbscan
