// MapReduce engine — the paper's Figure 7 baseline substrate.
//
// Faithful to the Hadoop data path the paper describes (its Figure 2):
//   * map tasks consume input splits and emit key-value pairs;
//   * emitted pairs are partitioned by hash(key) % reducers, sorted, and
//     *spilled to real local files* (this disk materialization is exactly
//     the cost Spark's in-memory RDDs avoid);
//   * reduce tasks "remote-read" every map task's spill for their partition
//     (charged to the network model), merge-sort them, group by key, and
//     run the reducer;
//   * the job pays a startup cost (JobTracker scheduling + JVM spin-up) and
//     a per-task launch overhead, both far larger than Spark's.
//
// Like minispark, execution is real and results exact; phase durations are
// also accounted on the simulated cluster clock so the Spark/MapReduce
// comparison (Figure 7) is apples-to-apples.
// Failure semantics: map/reduce task attempts that fail (fault sites
// mr.map.fail / mr.reduce.fail / mr.shuffle.fail) are re-executed under a
// bounded backoff policy, exactly Hadoop's task-retry story. Re-execution
// is idempotent: spills are truncating overwrites and are deleted only
// after the whole job succeeds, and mr.map.duplicate speculatively runs a
// map task twice to prove the output is execution-count-invariant.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "minispark/cost_model.hpp"
#include "util/common.hpp"
#include "util/retry.hpp"

namespace sdb::mapreduce {

struct MRConfig {
  /// Directory for spill files (real files are written/read here).
  std::string work_dir = "/tmp/sdb_mr";
  u32 reduce_tasks = 1;
  /// Simulated cores available to run map/reduce tasks.
  u32 cores = 4;

  /// Per-job startup: JobTracker scheduling, JVM launch, split computation.
  /// Hadoop jobs pay seconds here where Spark pays milliseconds.
  double job_startup_s = 2.5;
  /// Per-task JVM/launch overhead (Hadoop reuses JVMs poorly by default).
  double task_overhead_s = 0.15;

  /// Bounded backoff applied to failed map/reduce attempts and shuffle
  /// reads; retries re-pay the task overhead and their backoff is charged
  /// to the task's simulated duration.
  RetryPolicy task_retry;
};

struct PhaseMetrics {
  double sim_makespan_s = 0.0;  ///< tasks list-scheduled on `cores`
  double sim_total_s = 0.0;     ///< sum of task durations
  u64 tasks = 0;
};

struct MRJobMetrics {
  std::string name;
  double wall_s = 0.0;
  PhaseMetrics map;
  PhaseMetrics reduce;
  double shuffle_s = 0.0;       ///< simulated remote-read + merge time
  u64 spill_bytes = 0;          ///< map-side bytes written to disk
  u64 shuffle_bytes = 0;        ///< bytes moved map->reduce
  double sim_total_s = 0.0;     ///< startup + map + shuffle + reduce
  u32 map_retries = 0;          ///< failed map attempts that were re-run
  u32 reduce_retries = 0;       ///< failed reduce attempts that were re-run
  u32 shuffle_retries = 0;      ///< failed spill reads that were re-run
  u32 duplicate_map_tasks = 0;  ///< speculative duplicate map executions
};

/// One key-value record. Values are opaque byte strings (the serialized
/// payloads the DBSCAN job ships are binary partial-cluster blobs).
struct KV {
  std::string key;
  std::string value;
};

class MRJob {
 public:
  /// Emit callback handed to mappers/reducers.
  using Emit = std::function<void(std::string key, std::string value)>;
  /// mapper(map_task_index, input_split, emit)
  using Mapper = std::function<void(u32, const std::string&, const Emit&)>;
  /// reducer(key, values, emit)
  using Reducer =
      std::function<void(const std::string&, std::vector<std::string>&, const Emit&)>;

  MRJob(MRConfig config, std::string name, Mapper mapper, Reducer reducer);

  /// Run the job over the given input splits (one map task per split).
  /// Returns the reduce output in key order.
  std::vector<KV> run(const std::vector<std::string>& input_splits);

  [[nodiscard]] const MRJobMetrics& metrics() const { return metrics_; }

 private:
  [[nodiscard]] std::string spill_path(u32 map_task, u32 reduce_task) const;

  MRConfig config_;
  std::string name_;
  Mapper mapper_;
  Reducer reducer_;
  MRJobMetrics metrics_;
};

}  // namespace sdb::mapreduce
