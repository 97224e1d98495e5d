// Workload-balance summaries over JobMetrics — the measurement behind the
// paper's closing concern: "We did not partition data points based on the
// neighborhood relationship in our work and that might cause workload to be
// unbalanced."
#include <gtest/gtest.h>

#include "minispark/metrics.hpp"
#include "minispark/spark_context.hpp"

namespace sdb::minispark {
namespace {

TEST(BalanceStats, UniformTasksBalanced) {
  JobMetrics job;
  for (int i = 0; i < 8; ++i) {
    TaskMetrics t;
    t.sim_s = 2.0;
    job.tasks.push_back(t);
  }
  const BalanceStats b = balance_stats(job);
  EXPECT_DOUBLE_EQ(b.min_task_s, 2.0);
  EXPECT_DOUBLE_EQ(b.max_task_s, 2.0);
  EXPECT_DOUBLE_EQ(b.mean_task_s, 2.0);
  EXPECT_DOUBLE_EQ(b.imbalance(), 1.0);
}

TEST(BalanceStats, SkewDetected) {
  JobMetrics job;
  for (const double s : {1.0, 1.0, 1.0, 5.0}) {
    TaskMetrics t;
    t.sim_s = s;
    job.tasks.push_back(t);
  }
  const BalanceStats b = balance_stats(job);
  EXPECT_DOUBLE_EQ(b.min_task_s, 1.0);
  EXPECT_DOUBLE_EQ(b.max_task_s, 5.0);
  EXPECT_DOUBLE_EQ(b.mean_task_s, 2.0);
  EXPECT_DOUBLE_EQ(b.imbalance(), 2.5);  // max / mean
}

TEST(BalanceStats, EmptyJob) {
  JobMetrics job;
  const BalanceStats b = balance_stats(job);
  EXPECT_DOUBLE_EQ(b.imbalance(), 1.0);
}

TEST(BalanceStats, RealJobEndToEnd) {
  ClusterConfig cfg;
  cfg.executors = 4;
  cfg.straggler.fraction = 0.0;
  SparkContext ctx(cfg);
  // Deliberately skewed work: task p performs p * 1M counted ops.
  auto rdd = ctx.generate<int>(
      [](u32 p) {
        counters::distance_evals(static_cast<u64>(p) * 1000000);
        return std::vector<int>{1};
      },
      8, "skewed");
  ctx.foreach_partition(*rdd, [](u32, std::vector<int>&&) {});
  const BalanceStats b = balance_stats(ctx.last_job());
  EXPECT_GT(b.imbalance(), 1.5);
  EXPECT_GT(b.max_task_s, b.min_task_s);
}

}  // namespace
}  // namespace sdb::minispark
