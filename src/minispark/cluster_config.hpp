// Simulated cluster topology + execution knobs for a SparkContext.
#pragma once

#include "minispark/cost_model.hpp"
#include "util/common.hpp"

namespace sdb::minispark {

struct ClusterConfig {
  /// Number of executor processes in the simulated cluster.
  u32 executors = 4;
  /// Simulated cores per executor (total cores = executors * cores).
  u32 cores_per_executor = 1;
  /// Real worker threads that run a job's tasks on the host, independent of
  /// the simulated core count. 0 (the default) = the host's hardware
  /// concurrency; at most 16 either way (resolve_threads). No result depends
  /// on it: labels, work counters and simulated-clock times are the same at
  /// any value. Chaos tests pin 1 so the fault log is totally ordered.
  u32 host_threads = 0;

  CostModel cost;
  StragglerModel straggler;

  /// Fraction of task *attempts* that are injected to fail (fault-tolerance
  /// exercises). A failed attempt recomputes its partition from the
  /// generator, up to `max_task_attempts` attempts per task. The FaultPlan
  /// sites `spark.task.fail`, `spark.task.hang`, `spark.acc.lost` and
  /// `spark.task.duplicate` (fault/fault_plan.hpp) feed the same retry loop.
  double fault_injection_rate = 0.0;
  u32 max_task_attempts = 4;

  /// Simulated duration of a task stalled by the `spark.task.hang` site.
  double task_hang_s = 30.0;
  /// Per-task timeout on the simulated clock: a hung task whose stall
  /// reaches the timeout is declared dead by the driver and re-executed
  /// (speculative-execution semantics). 0 = no timeout — a hang just makes
  /// the task slow (a straggler).
  double task_timeout_s = 10.0;

  /// Seed for straggler sampling and fault injection.
  u64 seed = 42;

  [[nodiscard]] u32 total_cores() const {
    return executors * cores_per_executor;
  }
};

}  // namespace sdb::minispark
