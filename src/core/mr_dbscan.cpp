#include "core/mr_dbscan.hpp"

#include <memory>

#include "core/job_identity.hpp"
#include "minispark/job_checkpoint.hpp"
#include "spatial/kd_tree.hpp"
#include "util/stopwatch.hpp"

namespace sdb::dbscan {

MRDbscanReport mr_dbscan(const PointSet& points, const MRDbscanConfig& config) {
  Stopwatch wall;
  MRDbscanReport report;

  // --- Durability: recover committed map outputs, map only the rest.
  // The reducer folds recovered blobs in with freshly-shuffled ones; the
  // uid-canonical merge makes the resumed labeling byte-identical to an
  // uninterrupted run.
  std::unique_ptr<minispark::JobCheckpoint> ckpt;
  std::vector<u32> recovered_parts;
  if (!config.checkpoint_dir.empty()) {
    report.job_fingerprint = job_fingerprint(
        "mr", dataset_digest(points), config.params, config.partitioner,
        config.partitions, config.seed, config.seed_strategy,
        config.merge_strategy, config.codec);
    ckpt = std::make_unique<minispark::JobCheckpoint>(
        config.checkpoint_dir, report.job_fingerprint, config.resume);
    recovered_parts = ckpt->completed();
  }
  std::vector<u32> pending;
  for (u32 p = 0; p < config.partitions; ++p) {
    if (ckpt != nullptr && ckpt->has(p)) continue;
    pending.push_back(p);
  }
  report.resumed_partitions = recovered_parts.size();
  report.executed_partitions = pending.size();

  // Shared read-only state: in Hadoop this ships via the distributed cache
  // and every task re-reads it from local disk; that read is charged inside
  // the mapper below.
  const KdTree tree(points);
  const Partitioning partitioning = make_partitioning(
      config.partitioner, points, config.partitions, config.seed);
  LocalDbscanConfig local_config;
  local_config.params = config.params;
  local_config.seed_strategy = config.seed_strategy;
  const u64 cache_bytes = tree.byte_size() + partitioning.byte_size();

  // Partial clusters found by each map task, for the report.
  std::vector<u64> task_clusters(pending.size(), 0);

  minispark::JobCheckpoint* ckpt_ptr = ckpt.get();
  mapreduce::MRJob::Mapper mapper =
      [&](u32 task, const std::string& split, const mapreduce::MRJob::Emit& emit) {
        // Distributed-cache load: dataset + kd-tree from local disk.
        counters::bytes_read(cache_bytes);
        const auto partition = static_cast<PartitionId>(std::stol(split));
        const LocalClusterResult local =
            local_dbscan(points, tree, partitioning, partition, local_config);
        task_clusters[task] = local.clusters.size();
        std::string blob = encode(local, config.codec);
        // Commit the map output before it enters the shuffle: Hadoop's map
        // outputs survive task death the same way (materialized spills).
        if (ckpt_ptr != nullptr) {
          ckpt_ptr->save(static_cast<u32>(partition), blob);
        }
        emit("partial", std::move(blob));
      };

  MergeOptions merge_options;
  merge_options.strategy = config.merge_strategy;
  MergeResult merged;
  // Decoded checkpoint blobs join the shuffled values in the reducer.
  // Decoded eagerly: commit() below deletes the records.
  std::vector<LocalClusterResult> recovered_locals;
  recovered_locals.reserve(recovered_parts.size());
  u64 recovered_clusters = 0;
  for (const u32 p : recovered_parts) {
    recovered_locals.push_back(decode(ckpt->load(p), config.codec));
    recovered_clusters += recovered_locals.back().clusters.size();
  }
  mapreduce::MRJob::Reducer reducer =
      [&](const std::string& key, std::vector<std::string>& values,
          const mapreduce::MRJob::Emit& emit) {
        SDB_CHECK(key == "partial", "unexpected reduce key: " + key);
        // Moved, not copied: the one reduce call runs once per successful
        // attempt, and an injected reduce fault fires before the call, so
        // a retry never sees the moved-from vector.
        std::vector<LocalClusterResult> collected = std::move(recovered_locals);
        collected.reserve(collected.size() + values.size());
        for (const std::string& blob : values) {
          collected.push_back(decode(blob, config.codec));
        }
        merged = merge_partial_clusters(collected, points.size(), merge_options);
        // Emit one record per cluster (member lists), the job's output.
        StringWriter w;
        w.write_i64_vec(merged.clustering.labels);
        emit("labels", w.take());
      };

  if (pending.empty()) {
    // Everything already checkpointed: no map tasks to run, so skip the job
    // (and its startup cost) and merge the recovered outputs directly.
    merged =
        merge_partial_clusters(recovered_locals, points.size(), merge_options);
  } else {
    mapreduce::MRConfig mr_config = config.mr;
    mr_config.reduce_tasks = 1;  // the merge is global, like the Spark driver
    mapreduce::MRJob job(mr_config, "mr-dbscan", std::move(mapper),
                         std::move(reducer));

    std::vector<std::string> splits;
    splits.reserve(pending.size());
    for (const u32 p : pending) {
      splits.push_back(std::to_string(p));
    }
    const std::vector<mapreduce::KV> output = job.run(splits);
    SDB_CHECK(output.size() == 1 && output[0].key == "labels",
              "mr-dbscan job produced unexpected output");
    report.job = job.metrics();
  }
  if (ckpt != nullptr) {
    report.checkpoint_saves = ckpt->saves();
    ckpt->commit();
  }

  report.clustering = std::move(merged.clustering);
  report.merge_stats = merged.stats;
  report.partial_clusters = recovered_clusters;
  for (const u64 clusters : task_clusters) {
    report.partial_clusters += clusters;
  }
  report.sim_total_s = report.job.sim_total_s;
  report.wall_s = wall.seconds();
  return report;
}

}  // namespace sdb::dbscan
