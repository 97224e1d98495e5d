// Fault-tolerance: the motivation the paper gives for leaving MPI behind.
// Tasks are killed by injection and must be recomputed from their generator
// with identical results. Results travel the way Algorithm 2's do (and the
// chaos grid's): foreach_partition, then Accumulator::add_once tagged by
// partition.
#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "minispark/spark_context.hpp"

namespace sdb::minispark {
namespace {

/// Partition p of `n` values 0..n-1 cut into `partitions` contiguous chunks.
std::shared_ptr<Rdd<int>> iota_rdd(SparkContext& ctx, int n, u32 partitions) {
  return ctx.generate<int>(
      [n, parts = static_cast<int>(partitions)](u32 p) {
        const int begin = n * static_cast<int>(p) / parts;
        const int end = n * static_cast<int>(p + 1) / parts;
        std::vector<int> out(static_cast<size_t>(end - begin));
        std::iota(out.begin(), out.end(), begin);
        return out;
      },
      partitions, "iota");
}

/// Run one foreach_partition job that ships every partition to the driver
/// through add_once, and return the partitions concatenated in order.
std::vector<int> gather(SparkContext& ctx, const Rdd<int>& rdd) {
  using Parts = std::map<u32, std::vector<int>>;
  auto acc = ctx.accumulator<Parts>({}, [](Parts& into, Parts&& delta) {
    into.merge(delta);
  });
  ctx.foreach_partition(rdd, [&acc](u32 p, std::vector<int>&& data) {
    const u64 bytes = data.size() * sizeof(int);
    acc->add_once(p, Parts{{p, std::move(data)}}, bytes);
  });
  std::vector<int> out;
  for (const auto& [p, part] : acc->value()) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

TEST(FaultTolerance, InjectedFailuresAreRetriedToSuccess) {
  ClusterConfig cfg;
  cfg.executors = 4;
  cfg.fault_injection_rate = 0.3;
  cfg.max_task_attempts = 6;
  cfg.straggler.fraction = 0.0;
  cfg.seed = 11;
  SparkContext ctx(cfg);
  std::vector<int> data(1000);
  std::iota(data.begin(), data.end(), 0);
  const auto out = gather(ctx, *iota_rdd(ctx, 1000, 16));
  EXPECT_EQ(out, data);  // result identical despite failures
  EXPECT_GT(ctx.last_job().failures_injected, 0u);
}

TEST(FaultTolerance, AttemptsRecordedPerTask) {
  ClusterConfig cfg;
  cfg.executors = 2;
  cfg.fault_injection_rate = 0.5;
  cfg.max_task_attempts = 8;
  cfg.straggler.fraction = 0.0;
  cfg.seed = 3;
  SparkContext ctx(cfg);
  EXPECT_EQ(gather(ctx, *iota_rdd(ctx, 64, 32)).size(), 64u);
  u32 retried = 0;
  for (const auto& t : ctx.last_job().tasks) {
    EXPECT_GE(t.attempts, 1u);
    EXPECT_LE(t.attempts, 8u);
    if (t.attempts > 1) ++retried;
  }
  EXPECT_GT(retried, 0u);
}

TEST(FaultTolerance, RetriesChargeExtraLaunchOverhead) {
  // A retried task pays the task-launch overhead again (the recompute).
  ClusterConfig no_faults_cfg;
  no_faults_cfg.executors = 1;
  no_faults_cfg.straggler.fraction = 0.0;
  ClusterConfig faults_cfg = no_faults_cfg;
  faults_cfg.fault_injection_rate = 0.9;
  faults_cfg.max_task_attempts = 10;
  faults_cfg.seed = 5;

  SparkContext clean(no_faults_cfg);
  SparkContext faulty(faults_cfg);
  auto make = [](SparkContext& ctx) {
    (void)gather(ctx, *iota_rdd(ctx, 8, 8));
    return ctx.last_job().sim_executor_total_s;
  };
  EXPECT_GT(make(faulty), make(clean));
}

TEST(FaultTolerance, DeterministicGivenSeed) {
  auto run = [](u64 seed) {
    ClusterConfig cfg;
    cfg.executors = 4;
    cfg.fault_injection_rate = 0.4;
    cfg.seed = seed;
    cfg.straggler.fraction = 0.0;
    SparkContext ctx(cfg);
    (void)gather(ctx, *iota_rdd(ctx, 100, 20));
    std::vector<u32> attempts;
    for (const auto& t : ctx.last_job().tasks) attempts.push_back(t.attempts);
    return attempts;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
}  // namespace sdb::minispark
