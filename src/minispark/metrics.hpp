// Job/task metrics and the simulated-cluster scheduling arithmetic.
#pragma once

#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/counters.hpp"

namespace sdb::minispark {

struct TaskMetrics {
  u32 partition = 0;
  u32 attempts = 1;        ///< 1 = succeeded first try
  bool straggled = false;
  double wall_s = 0.0;     ///< real host time spent computing the task
  double sim_s = 0.0;      ///< simulated task duration (launch + work)
  WorkCounters counters;
};

struct JobMetrics {
  u64 job_id = 0;
  std::string name;
  u32 num_tasks = 0;
  u32 failures_injected = 0;
  u32 timeouts = 0;          ///< task attempts declared dead by the timeout
  u32 duplicated_tasks = 0;  ///< speculative duplicate executions injected

  double wall_s = 0.0;

  /// Simulated time the executor phase occupies: tasks list-scheduled onto
  /// the configured core count (the "time spent in executors" series of the
  /// paper's Figure 6 / left column of Figure 8).
  double sim_executor_makespan_s = 0.0;
  /// Sum of all task durations (the serial executor work).
  double sim_executor_total_s = 0.0;
  /// Simulated driver-side time for this job: job setup, broadcast
  /// shipment and one task-completion message.
  double sim_driver_s = 0.0;

  u64 broadcast_bytes = 0;

  std::vector<TaskMetrics> tasks;

  [[nodiscard]] double sim_total_s() const {
    return sim_executor_makespan_s + sim_driver_s;
  }
};

/// Greedy FIFO list scheduling: assign each task, in order, to the earliest-
/// available core; returns the makespan. This is how the simulated cluster
/// turns per-task durations into a parallel phase duration.
double list_schedule_makespan(const std::vector<double>& durations, u32 cores);

/// Workload-balance summary of a job — the measurement behind the paper's
/// closing concern that index-block partitioning "might cause workload to
/// be unbalanced".
struct BalanceStats {
  double min_task_s = 0.0;
  double max_task_s = 0.0;
  double mean_task_s = 0.0;

  /// max/mean task duration; 1.0 = perfectly balanced. This is the factor
  /// by which the executor-phase makespan exceeds the ideal at high core
  /// counts.
  [[nodiscard]] double imbalance() const {
    return mean_task_s > 0.0 ? max_task_s / mean_task_s : 1.0;
  }
};

BalanceStats balance_stats(const JobMetrics& job);

/// One task placement produced by the list scheduler.
struct ScheduledTask {
  u32 task = 0;   ///< index into the duration list (== partition id)
  u32 core = 0;   ///< simulated core it ran on
  double start_s = 0.0;
  double end_s = 0.0;
};

/// The full schedule behind list_schedule_makespan: tasks in submission
/// order, each on the earliest-free core. makespan == max end_s.
std::vector<ScheduledTask> list_schedule(const std::vector<double>& durations,
                                         u32 cores);

/// ASCII Gantt chart of a schedule: one row per core, time left->right,
/// each task drawn as its index (mod 10). `width` = chart columns.
std::string render_gantt(const std::vector<ScheduledTask>& schedule,
                         u32 cores, int width = 72);

}  // namespace sdb::minispark
