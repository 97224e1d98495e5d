// SparkContext — the driver.
//
// Mirrors the Spark surface the paper's algorithm uses:
//   * sources: parallelize(), text_file(), generate();
//   * shared variables: broadcast(), accumulator();
//   * actions: collect(), count(), foreach_partition() — each action runs
//     one job: partitions become tasks, tasks run on a host thread pool,
//     failed tasks (fault injection) are recomputed from lineage, and the
//     completed job's simulated executor/driver times are recorded in
//     JobMetrics.
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

#include "dfs/mini_dfs.hpp"
#include "fault/injection.hpp"
#include "minispark/cluster_config.hpp"
#include "minispark/metrics.hpp"
#include "minispark/rdd.hpp"
#include "minispark/shared_vars.hpp"
#include "minispark/text_file_rdd.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace sdb::minispark {

class SparkContext {
 public:
  explicit SparkContext(ClusterConfig cfg)
      : cfg_(std::move(cfg)), pool_(resolve_threads(cfg_.host_threads)) {
    SDB_CHECK(cfg_.executors > 0, "need at least one executor");
  }

  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }

  /// Host threads that run tasks: config().host_threads resolved.
  [[nodiscard]] u32 host_threads() const { return pool_.size(); }

  /// Default partition count for parallelize().
  [[nodiscard]] u32 default_parallelism() const {
    return cfg_.default_parallelism > 0 ? cfg_.default_parallelism
                                        : cfg_.total_cores();
  }

  // --- sources ---

  template <typename T>
  std::shared_ptr<Rdd<T>> parallelize(std::vector<T> data, u32 partitions = 0) {
    if (partitions == 0) partitions = default_parallelism();
    return std::make_shared<ParallelizeRdd<T>>(std::move(data), partitions);
  }

  std::shared_ptr<Rdd<std::string>> text_file(const dfs::MiniDfs& dfs,
                                              const std::string& path) {
    return std::make_shared<TextFileRdd>(dfs, path);
  }

  template <typename T>
  std::shared_ptr<Rdd<T>> generate(std::function<std::vector<T>(u32)> fn,
                                   u32 partitions, std::string name = "generator") {
    return std::make_shared<GeneratorRdd<T>>(std::move(fn), partitions,
                                             std::move(name));
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

  // --- actions ---

  /// Run `fn(partition_index, partition_data)` once per partition and gather
  /// the returned values in partition order. The generic job runner
  /// underlying every action. `result_bytes_per_task` prices each task's
  /// result shipment to the driver.
  template <typename T, typename F>
  auto run_job(const Rdd<T>& rdd, F fn, std::string name,
               u64 result_bytes_per_task = 0) {
    using R = std::invoke_result_t<F, u32, std::vector<T>&&>;
    const u32 num_tasks = rdd.num_partitions();

    JobMetrics job;
    job.job_id = jobs_.size();
    job.name = std::move(name);
    job.num_tasks = num_tasks;
    job.lineage_depth = rdd.lineage_depth();
    job.broadcast_bytes = pending_broadcast_bytes_;
    job.tasks.resize(num_tasks);

    Stopwatch job_wall;
    std::vector<R> results(num_tasks);
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
            // Simulated task loss: lineage makes recomputation trivially
            // correct, so "recovery" is literally running compute again.
            const std::scoped_lock lock(metrics_mutex);
            ++job.failures_injected;
            continue;
          }
          if (SDB_INJECT("spark.task.hang")) {
            // The task stalls on the simulated clock. With a timeout
            // configured, the driver declares the attempt dead once the
            // stall reaches it and re-executes from lineage; otherwise the
            // task is merely a straggler.
            if (can_retry && cfg_.task_timeout_s > 0.0 &&
                cfg_.task_hang_s >= cfg_.task_timeout_s) {
              stall_sim_s += cfg_.task_timeout_s;  // time burned waiting
              const std::scoped_lock lock(metrics_mutex);
              ++job.timeouts;
              continue;
            }
            stall_sim_s += cfg_.task_hang_s;
          }
          WorkCounters wc;
          bool attempt_ok = true;
          try {
            ScopedCounters scope(&wc);
            std::vector<T> data = rdd.materialize(p);
            results[p] = fn(p, std::move(data));
            if (SDB_INJECT("spark.task.duplicate")) {
              // Speculative duplicate: the whole task runs a second time
              // (both copies' work is physical). Exactness relies on
              // deterministic lineage plus idempotent accumulator merge
              // (Accumulator::add_once) — verified by the chaos suite.
              std::vector<T> dup = rdd.materialize(p);
              results[p] = fn(p, std::move(dup));
              const std::scoped_lock lock(metrics_mutex);
              ++job.duplicated_tasks;
            }
          } catch (const fault::InjectedFault&) {
            // An in-task fault (e.g. a lost accumulator update) fails the
            // attempt; the driver re-executes from lineage. Exhausted
            // attempts propagate — faults beyond the retry budget are real.
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
        double sim = cfg_.cost.task_launch_s * tm.attempts +
                     cfg_.cost.compute_seconds(tm.counters) +
                     cfg_.cost.transfer_seconds(result_bytes_per_task);
        const double factor = straggle_factor(job.job_id, p);
        tm.straggled = factor > 1.0 || stall_sim_s > 0.0;
        sim = sim * factor + stall_sim_s;
        tm.sim_s = sim;
        tm.locality_hit = locality_hit(rdd, p);
        {
          const std::scoped_lock lock(metrics_mutex);
          job.tasks[p] = tm;
          job.result_bytes += result_bytes_per_task;
        }
      }));
    }
    // Every task must finish before this frame unwinds: the tasks write into
    // `results`, `job` and `metrics_mutex` and call `fn`. So wait for all of
    // them, then rethrow the first task exception in partition order.
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
    job.sim_driver_s =
        cfg_.cost.job_setup_s +
        cfg_.cost.broadcast_seconds(pending_broadcast_bytes_, cfg_.executors) +
        cfg_.cost.transfer_seconds(job.result_bytes);
    pending_broadcast_bytes_ = 0;

    SDB_LOG_DEBUG("minispark",
                  "job %llu '%s': %u tasks, sim exec %.3fs, sim driver %.3fs",
                  static_cast<unsigned long long>(job.job_id), job.name.c_str(),
                  num_tasks, job.sim_executor_makespan_s, job.sim_driver_s);
    jobs_.push_back(std::move(job));
    return results;
  }

  /// Materialize the whole RDD in the driver, in partition order.
  template <typename T>
  std::vector<T> collect(const Rdd<T>& rdd, u64 bytes_per_element = sizeof(T)) {
    auto parts = run_job(
        rdd, [](u32, std::vector<T>&& data) { return std::move(data); },
        "collect(" + rdd.name() + ")");
    std::vector<T> out;
    u64 bytes = 0;
    for (auto& part : parts) {
      bytes += part.size() * bytes_per_element;
      out.insert(out.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
    }
    if (!jobs_.empty()) jobs_.back().result_bytes += bytes;
    return out;
  }

  /// Count elements across all partitions.
  template <typename T>
  u64 count(const Rdd<T>& rdd) {
    auto sizes = run_job(
        rdd, [](u32, std::vector<T>&& data) { return data.size(); },
        "count(" + rdd.name() + ")", sizeof(u64));
    u64 total = 0;
    for (const auto s : sizes) total += s;
    return total;
  }

  /// Fold all elements with an associative, commutative operation (Spark's
  /// reduce). Aborts on an empty RDD, like Spark.
  template <typename T, typename Op>
  T reduce(const Rdd<T>& rdd, Op op) {
    auto partials = run_job(
        rdd,
        [op](u32, std::vector<T>&& data) {
          std::optional<T> acc;
          for (auto& x : data) {
            if (!acc) acc = std::move(x);
            else acc = op(std::move(*acc), std::move(x));
          }
          return acc;
        },
        "reduce(" + rdd.name() + ")", sizeof(T));
    std::optional<T> total;
    for (auto& part : partials) {
      if (!part) continue;
      if (!total) total = std::move(part);
      else total = op(std::move(*total), std::move(*part));
    }
    SDB_CHECK(total.has_value(), "reduce() on an empty RDD");
    return std::move(*total);
  }

  /// First `n` elements in partition order (Spark's take; here a single job
  /// rather than Spark's incremental partition scan).
  template <typename T>
  std::vector<T> take(const Rdd<T>& rdd, size_t n) {
    std::vector<T> out;
    auto parts = run_job(
        rdd, [](u32, std::vector<T>&& data) { return std::move(data); },
        "take(" + rdd.name() + ")");
    for (auto& part : parts) {
      for (auto& x : part) {
        if (out.size() == n) return out;
        out.push_back(std::move(x));
      }
    }
    return out;
  }

  /// Run a side-effecting function once per partition (the paper's foreach;
  /// results flow back through accumulators, not return values).
  template <typename T, typename F>
  void foreach_partition(const Rdd<T>& rdd, F fn,
                         std::string name = "foreachPartition") {
    run_job(
        rdd,
        [fn = std::move(fn)](u32 p, std::vector<T>&& data) {
          fn(p, std::move(data));
          return 0;
        },
        std::move(name));
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

  /// Executor for task p is p % executors; a locality hit means the block's
  /// replica set contains the datanode co-located with that executor.
  [[nodiscard]] bool locality_hit(const RddBase& rdd, u32 p) const {
    const auto locations = rdd.preferred_locations(p);
    if (locations.empty()) return true;  // no preference -> trivially local
    const u32 executor_node = p % cfg_.executors;
    for (const u32 loc : locations) {
      if (loc == executor_node) return true;
    }
    return false;
  }

  ClusterConfig cfg_;
  ThreadPool pool_;
  std::vector<JobMetrics> jobs_;
  u64 pending_broadcast_bytes_ = 0;
};

}  // namespace sdb::minispark
