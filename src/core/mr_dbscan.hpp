// DBSCAN on the MapReduce substrate — the paper's own Figure 7 baseline
// ("we have implemented our own DBSCAN with MapReduce approach").
//
// Same clustering kernel and SEED merge as the Spark version; what differs
// is the framework data path, which is the entire point of the comparison:
//   * each map task loads the dataset + kd-tree from the distributed cache
//     (charged as disk reads — there is no in-memory broadcast in MR);
//   * map output (serialized partial-cluster blobs) is sorted and spilled to
//     real local files, then shuffled to the reducer over the network model;
//   * the single reducer performs the SEED merge and emits the labeling;
//   * the job pays MapReduce startup and per-task overheads.
#pragma once

#include "core/codec.hpp"
#include "core/dbscan.hpp"
#include "core/local_dbscan.hpp"
#include "core/merge.hpp"
#include "core/partitioners.hpp"
#include "mapreduce/mr_engine.hpp"

namespace sdb::dbscan {

struct MRDbscanConfig {
  DbscanParams params;
  u32 partitions = 4;  ///< map tasks
  PartitionerKind partitioner = PartitionerKind::kBlock;
  SeedStrategy seed_strategy = SeedStrategy::kAllForeign;
  MergeStrategy merge_strategy = MergeStrategy::kUnionFind;
  /// Wire format for the partial clusters spilled by map tasks.
  Codec codec = Codec::kRaw;
  u64 seed = 42;
  mapreduce::MRConfig mr;  ///< engine knobs (work dir, cores, overheads)
  /// Directory for crash-consistent job checkpoints (empty = durability
  /// off). Each map task's partial-cluster blob is committed to disk as it
  /// is produced (see minispark/job_checkpoint.hpp).
  std::string checkpoint_dir;
  /// With checkpoint_dir set: recover committed map outputs left by a
  /// previous (crashed) run of the same job fingerprint, map only the
  /// missing partitions, and feed both into the reduce-side merge. false
  /// wipes prior state and checkpoints from scratch.
  bool resume = false;
};

struct MRDbscanReport {
  Clustering clustering;
  MergeStats merge_stats;
  mapreduce::MRJobMetrics job;
  u64 partial_clusters = 0;
  double sim_total_s = 0.0;  ///< startup + map + shuffle + reduce
  double wall_s = 0.0;

  // --- durability (checkpoint_dir set) ---
  u64 job_fingerprint = 0;       ///< deterministic job identity
  u64 resumed_partitions = 0;    ///< map outputs recovered from the checkpoint
  u64 executed_partitions = 0;   ///< map tasks run by this job
  u64 checkpoint_saves = 0;      ///< records committed by this run
};

/// Run the MapReduce DBSCAN over an in-memory dataset.
MRDbscanReport mr_dbscan(const PointSet& points, const MRDbscanConfig& config);

}  // namespace sdb::dbscan
