// SparkContext — the driver.
//
// Mirrors the Spark surface the paper's algorithm (Algorithm 2) uses:
//   * source: generate() — one partition per generator call;
//   * shared variables: broadcast(), accumulator();
//   * action: foreach_partition() runs one job: partitions become tasks,
//     tasks run on a host thread pool, failed attempts (fault injection) are
//     recomputed from the generator, and the completed job's simulated
//     executor/driver times are recorded in JobMetrics.
//
// Two clocks:
//   * wall clock — real host time (meaningful only for host-level benches);
//   * simulated cluster clock — per-task work counters priced by the
//     CostModel, list-scheduled onto config.total_cores(), plus straggler
//     and network terms. All paper figures are reproduced on this clock.
#pragma once

#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "fault/injection.hpp"
#include "minispark/cluster_config.hpp"
#include "minispark/metrics.hpp"
#include "minispark/rdd.hpp"
#include "minispark/shared_vars.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace sdb::minispark {

/// Simulated stall of a task hit by the `spark.task.hang` site.
inline constexpr double kTaskHangS = 30.0;
/// Per-task timeout on the simulated clock: the driver declares a hung
/// attempt dead once its stall reaches the timeout and re-executes it
/// (speculative-execution semantics), so a hang on an attempt that may
/// still retry costs the timeout, and one on the last attempt its stall.
inline constexpr double kTaskTimeoutS = 10.0;
static_assert(kTaskHangS >= kTaskTimeoutS, "a hang must reach the timeout");

class SparkContext {
 public:
  explicit SparkContext(ClusterConfig cfg)
      : cfg_(std::move(cfg)), pool_(resolve_threads(cfg_.host_threads)) {
    SDB_CHECK(cfg_.executors > 0, "need at least one executor");
  }

  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }

  /// Host threads that run tasks: config().host_threads resolved.
  [[nodiscard]] u32 host_threads() const { return pool_.size(); }

  // --- source ---

  template <typename T>
  std::shared_ptr<Rdd<T>> generate(std::function<std::vector<T>(u32)> fn,
                                   u32 partitions, std::string name = "generator") {
    return std::make_shared<Rdd<T>>(std::move(fn), partitions, std::move(name));
  }

  // --- shared variables ---

  /// Register a broadcast variable. `bytes` is the serialized size used by
  /// the network model; it is charged to the next job's driver time (the
  /// shipment happens when the first job needs the value).
  template <typename T>
  Broadcast<T> broadcast(T value, u64 bytes) {
    pending_broadcast_bytes_ += bytes;
    return Broadcast<T>(std::make_shared<const T>(std::move(value)), bytes);
  }

  template <typename T>
  std::shared_ptr<Accumulator<T>> accumulator(T zero,
                                              typename Accumulator<T>::Merge merge) {
    return std::make_shared<Accumulator<T>>(std::move(zero), std::move(merge));
  }

  // --- action ---

  /// Run `fn(partition_index, partition_data)` once per partition as one
  /// job (the paper's foreach). Results flow back through accumulators, not
  /// return values. Every task finishes before the first task exception, in
  /// partition order, is rethrown.
  template <typename T, typename F>
  void foreach_partition(const Rdd<T>& rdd, F fn,
                         std::string name = "foreachPartition") {
    const u32 num_tasks = rdd.num_partitions();

    JobMetrics job;
    job.job_id = jobs_.size();
    job.name = std::move(name);
    job.num_tasks = num_tasks;
    job.broadcast_bytes = pending_broadcast_bytes_;
    job.tasks.resize(num_tasks);

    Stopwatch job_wall;
    std::vector<std::future<void>> futures;
    futures.reserve(num_tasks);
    std::mutex metrics_mutex;

    for (u32 p = 0; p < num_tasks; ++p) {
      futures.push_back(pool_.submit([&, p] {
        TaskMetrics tm;
        tm.partition = p;
        Stopwatch wall;
        double stall_sim_s = 0.0;  // hang stalls + timeout waits
        for (u32 attempt = 1;; ++attempt) {
          tm.attempts = attempt;
          const bool can_retry = attempt < cfg_.max_task_attempts;
          if (can_retry && (inject_fault(job.job_id, p, attempt) ||
                            SDB_INJECT("spark.task.fail"))) {
            // Simulated task loss: the partition is a pure function of its
            // index, so "recovery" is literally running the task again.
            const std::scoped_lock lock(metrics_mutex);
            ++job.failures_injected;
            continue;
          }
          if (SDB_INJECT("spark.task.hang")) {
            // The task stalls on the simulated clock. The driver declares
            // an attempt that may still retry dead at the timeout and
            // re-executes it; the last attempt runs its stall out.
            if (can_retry) {
              stall_sim_s += kTaskTimeoutS;  // time burned waiting
              const std::scoped_lock lock(metrics_mutex);
              ++job.timeouts;
              continue;
            }
            stall_sim_s += kTaskHangS;
          }
          WorkCounters wc;
          bool attempt_ok = true;
          try {
            ScopedCounters scope(&wc);
            fn(p, rdd.compute(p));
            if (SDB_INJECT("spark.task.duplicate")) {
              // Speculative duplicate: the whole task runs a second time
              // (both copies' work is physical). Exactness relies on the
              // deterministic generator plus idempotent accumulator merge
              // (Accumulator::add_once) — verified by the chaos suite.
              fn(p, rdd.compute(p));
              const std::scoped_lock lock(metrics_mutex);
              ++job.duplicated_tasks;
            }
          } catch (const fault::InjectedFault&) {
            // An in-task fault (e.g. a lost accumulator update) fails the
            // attempt; the driver re-executes it. Exhausted attempts
            // propagate — faults beyond the retry budget are real.
            attempt_ok = false;
            if (!can_retry) throw;
            const std::scoped_lock lock(metrics_mutex);
            ++job.failures_injected;
          }
          if (!attempt_ok) continue;
          tm.counters = wc;
          break;
        }
        tm.wall_s = wall.seconds();
        // The completion message carries no result (a foreach returns
        // nothing; accumulator updates charge their own bytes), so it costs
        // one message latency: a zero-byte transfer.
        double sim = CostModel::task_launch_s * tm.attempts +
                     CostModel::compute_seconds(tm.counters) +
                     CostModel::transfer_seconds(0);
        const double factor = straggle_factor(job.job_id, p);
        tm.straggled = factor > 1.0 || stall_sim_s > 0.0;
        sim = sim * factor + stall_sim_s;
        tm.sim_s = sim;
        {
          const std::scoped_lock lock(metrics_mutex);
          job.tasks[p] = tm;
        }
      }));
    }
    // Every task must finish before this frame unwinds: the tasks write into
    // `job` and `metrics_mutex` and call `fn`. So wait for all of them, then
    // rethrow the first task exception in partition order.
    if (const std::exception_ptr error = wait_all(futures)) {
      std::rethrow_exception(error);
    }

    job.wall_s = job_wall.seconds();
    std::vector<double> durations;
    durations.reserve(num_tasks);
    for (const auto& tm : job.tasks) {
      durations.push_back(tm.sim_s);
      job.sim_executor_total_s += tm.sim_s;
    }
    job.sim_executor_makespan_s =
        list_schedule_makespan(durations, cfg_.total_cores());
    // The tasks return no results to collect, so the driver's share of the
    // result traffic is one zero-byte message.
    job.sim_driver_s =
        CostModel::job_setup_s +
        CostModel::broadcast_seconds(pending_broadcast_bytes_, cfg_.executors) +
        CostModel::transfer_seconds(0);
    pending_broadcast_bytes_ = 0;
    jobs_.push_back(std::move(job));
  }

  // --- metrics ---

  [[nodiscard]] const std::vector<JobMetrics>& jobs() const { return jobs_; }
  [[nodiscard]] const JobMetrics& last_job() const {
    SDB_CHECK(!jobs_.empty(), "no job has run");
    return jobs_.back();
  }

  /// Cumulative simulated executor time (makespans) across all jobs.
  [[nodiscard]] double sim_executor_seconds() const {
    double s = 0.0;
    for (const auto& j : jobs_) s += j.sim_executor_makespan_s;
    return s;
  }

  /// Cumulative simulated driver time across all jobs.
  [[nodiscard]] double sim_driver_seconds() const {
    double s = 0.0;
    for (const auto& j : jobs_) s += j.sim_driver_s;
    return s;
  }

 private:
  [[nodiscard]] bool inject_fault(u64 job, u32 task, u32 attempt) const {
    if (cfg_.fault_injection_rate <= 0.0) return false;
    Rng rng(derive_seed(cfg_.seed, "fault") ^
            (job * 1000003ull + task * 7919ull + attempt));
    return rng.chance(cfg_.fault_injection_rate);
  }

  [[nodiscard]] double straggle_factor(u64 job, u32 task) const {
    if (cfg_.straggler.fraction <= 0.0) return 1.0;
    Rng rng(derive_seed(cfg_.seed, "straggler") ^
            (job * 1000003ull + task * 7919ull));
    if (!rng.chance(cfg_.straggler.fraction)) return 1.0;
    return 1.0 + rng.uniform(0.0, cfg_.straggler.max_extra);
  }

  ClusterConfig cfg_;
  ThreadPool pool_;
  std::vector<JobMetrics> jobs_;
  u64 pending_broadcast_bytes_ = 0;
};

}  // namespace sdb::minispark
