#include "minispark/spark_context.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>

namespace sdb::minispark {
namespace {

ClusterConfig quiet_config(u32 executors) {
  ClusterConfig cfg;
  cfg.executors = executors;
  cfg.straggler.fraction = 0.0;
  return cfg;
}

/// A job with no counted work: each of `partitions` tasks gets one element.
std::shared_ptr<Rdd<int>> unit_rdd(SparkContext& ctx, u32 partitions) {
  return ctx.generate<int>([](u32) { return std::vector<int>{1}; },
                           partitions, "unit");
}

void run_noop(SparkContext& ctx, const Rdd<int>& rdd) {
  ctx.foreach_partition(rdd, [](u32, std::vector<int>&&) {});
}

TEST(SparkContext, ForeachPartitionSeesEveryPartitionOnce) {
  SparkContext ctx(quiet_config(3));
  auto rdd = ctx.generate<int>(
      [](u32 p) { return std::vector<int>(5, static_cast<int>(p)); }, 6,
      "gen");
  std::mutex mutex;
  std::vector<u32> seen;
  ctx.foreach_partition(*rdd, [&](u32 p, std::vector<int>&& data) {
    const std::scoped_lock lock(mutex);
    seen.push_back(p);
    EXPECT_EQ(data, std::vector<int>(5, static_cast<int>(p)));
  });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<u32>{0, 1, 2, 3, 4, 5}));
}

TEST(SparkContext, FailedAttemptCallsGeneratorAgain) {
  // A failed attempt is recovered by running the task again, and the task
  // recomputes its partition from the generator (lineage recomputation of
  // a source RDD): partition 2 is generated twice, the others once.
  SparkContext ctx(quiet_config(2));
  std::array<std::atomic<u32>, 4> generated{};
  std::atomic<bool> failed{false};
  auto rdd = ctx.generate<int>(
      [&generated](u32 p) {
        generated[p].fetch_add(1);
        return std::vector<int>{static_cast<int>(p)};
      },
      4, "gen");
  ctx.foreach_partition(*rdd, [&failed](u32 p, std::vector<int>&& data) {
    EXPECT_EQ(data, std::vector<int>{static_cast<int>(p)});
    if (p == 2 && !failed.exchange(true)) {
      throw fault::InjectedFault("test.task.fail");
    }
  });
  EXPECT_EQ(generated[0].load(), 1u);
  EXPECT_EQ(generated[1].load(), 1u);
  EXPECT_EQ(generated[2].load(), 2u);
  EXPECT_EQ(generated[3].load(), 1u);
  const JobMetrics& job = ctx.last_job();
  EXPECT_EQ(job.failures_injected, 1u);
  EXPECT_EQ(job.tasks[2].attempts, 2u);
  EXPECT_EQ(job.tasks[0].attempts, 1u);
}

TEST(SparkContext, JobMetricsRecorded) {
  SparkContext ctx(quiet_config(4));
  run_noop(ctx, *unit_rdd(ctx, 8));
  const JobMetrics& job = ctx.last_job();
  EXPECT_EQ(job.num_tasks, 8u);
  EXPECT_EQ(job.tasks.size(), 8u);
  EXPECT_GT(job.sim_executor_makespan_s, 0.0);
  EXPECT_GE(job.sim_executor_total_s, job.sim_executor_makespan_s);
  EXPECT_GT(job.sim_driver_s, 0.0);
  EXPECT_EQ(ctx.jobs().size(), 1u);
}

TEST(SparkContext, MakespanShrinksWithMoreCores) {
  // Same tasks, more simulated cores -> smaller simulated makespan. This is
  // the mechanism behind every speedup figure.
  auto run = [](u32 executors) {
    SparkContext ctx(quiet_config(executors));
    auto rdd = ctx.generate<int>(
        [](u32) {
          // Some counted work per task.
          WorkCounters* active = counters::active();
          (void)active;
          counters::distance_evals(200000);
          return std::vector<int>{1};
        },
        16, "work");
    run_noop(ctx, *rdd);
    return ctx.last_job().sim_executor_makespan_s;
  };
  const double t1 = run(1);
  const double t8 = run(8);
  EXPECT_GT(t1, t8 * 4);  // near-linear for 16 equal tasks
}

TEST(SparkContext, BroadcastChargedOnceToNextJob) {
  SparkContext ctx(quiet_config(4));
  auto b = ctx.broadcast(std::string("payload"), 1'000'000);
  EXPECT_EQ(b.value(), "payload");
  auto rdd = unit_rdd(ctx, 2);
  run_noop(ctx, *rdd);
  EXPECT_EQ(ctx.last_job().broadcast_bytes, 1'000'000u);
  run_noop(ctx, *rdd);
  EXPECT_EQ(ctx.last_job().broadcast_bytes, 0u);  // shipped already
}

TEST(SparkContext, ListScheduleMakespanLaws) {
  // One core: makespan == sum. Many cores: makespan == max.
  const std::vector<double> d = {3, 1, 4, 1, 5};
  EXPECT_DOUBLE_EQ(list_schedule_makespan(d, 1), 14.0);
  EXPECT_DOUBLE_EQ(list_schedule_makespan(d, 100), 5.0);
  // FIFO onto 2 cores: ends at 3+4+5? Greedy earliest-free: c0:3, c1:1,
  // then 4 -> c1 (free at 1, ends 5), 1 -> c0 (free 3, ends 4), 5 -> c0
  // (free 4, ends 9). Makespan 9.
  EXPECT_DOUBLE_EQ(list_schedule_makespan(d, 2), 9.0);
  EXPECT_DOUBLE_EQ(list_schedule_makespan({}, 4), 0.0);
}

TEST(SparkContext, StragglerInflatesSomeTasks) {
  ClusterConfig cfg = quiet_config(4);
  cfg.straggler.fraction = 0.5;
  cfg.straggler.max_extra = 1.0;
  cfg.seed = 7;
  SparkContext ctx(cfg);
  auto rdd = ctx.generate<int>(
      [](u32) {
        counters::distance_evals(100000);
        return std::vector<int>{1};
      },
      32, "work");
  run_noop(ctx, *rdd);
  u32 straggled = 0;
  for (const auto& t : ctx.last_job().tasks) straggled += t.straggled ? 1 : 0;
  EXPECT_GT(straggled, 4u);
  EXPECT_LT(straggled, 28u);
}

TEST(SparkContext, TaskExceptionPropagates) {
  SparkContext ctx(quiet_config(2));
  auto rdd = ctx.generate<int>(
      [](u32 p) -> std::vector<int> {
        if (p == 1) throw std::runtime_error("task failure");
        return {1};
      },
      2, "boom");
  EXPECT_THROW(run_noop(ctx, *rdd), std::runtime_error);
}

TEST(SparkContext, TaskExceptionWaitsForEveryTask) {
  // Partition 0 throws at once while the other tasks are still queued or
  // running. They write into foreach_partition's frame, so the exception
  // may only surface after every one of them has finished.
  constexpr u32 kTasks = 8;
  for (const u32 threads : {1u, 4u}) {
    SCOPED_TRACE("host_threads=" + std::to_string(threads));
    ClusterConfig cfg = quiet_config(2);
    cfg.host_threads = threads;
    SparkContext ctx(cfg);
    std::atomic<u32> finished{0};
    auto rdd = ctx.generate<int>(
        [&finished](u32 p) -> std::vector<int> {
          if (p == 0) throw std::runtime_error("task failure");
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          finished.fetch_add(1);
          return {1};
        },
        kTasks, "boom");
    EXPECT_THROW(run_noop(ctx, *rdd), std::runtime_error);
    EXPECT_EQ(finished.load(), kTasks - 1);
  }
}

TEST(SparkContext, InTaskFaultOnLastAttemptPropagates) {
  // An injected fault that fails every attempt of partition 0 outlasts the
  // retries: the task runs exactly max_task_attempts times, then
  // foreach_partition rethrows the fault, after every other task finished.
  constexpr u32 kTasks = 6;
  for (const u32 threads : {1u, 4u}) {
    SCOPED_TRACE("host_threads=" + std::to_string(threads));
    ClusterConfig cfg = quiet_config(2);
    cfg.host_threads = threads;
    cfg.max_task_attempts = 5;
    SparkContext ctx(cfg);
    std::atomic<u32> attempts{0};
    std::atomic<u32> finished{0};
    auto rdd = unit_rdd(ctx, kTasks);
    bool propagated = false;
    try {
      ctx.foreach_partition(*rdd, [&](u32 p, std::vector<int>&&) {
        if (p == 0) {
          attempts.fetch_add(1);
          throw fault::InjectedFault("test.task.fail");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        finished.fetch_add(1);
      });
    } catch (const fault::InjectedFault& fault) {
      propagated = true;
      EXPECT_EQ(fault.site(), "test.task.fail");
    }
    EXPECT_TRUE(propagated);
    EXPECT_EQ(attempts.load(), cfg.max_task_attempts);
    EXPECT_EQ(finished.load(), kTasks - 1);
  }
}

TEST(SparkContext, HostThreadsResolveToHardwareConcurrency) {
  ClusterConfig cfg = quiet_config(2);
  EXPECT_EQ(cfg.host_threads, 0u);  // the default: every core
  EXPECT_EQ(SparkContext(cfg).host_threads(), resolve_threads(0));
  cfg.host_threads = 3;
  EXPECT_EQ(SparkContext(cfg).host_threads(), 3u);
}

}  // namespace
}  // namespace sdb::minispark
