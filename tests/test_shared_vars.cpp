#include "minispark/shared_vars.hpp"

#include <gtest/gtest.h>

#include "minispark/spark_context.hpp"

namespace sdb::minispark {
namespace {

TEST(Broadcast, ValueAccess) {
  Broadcast<int> b(std::make_shared<const int>(42), 4);
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.value(), 42);
  EXPECT_EQ(b.bytes(), 4u);
}

TEST(Broadcast, EmptyDereferenceAborts) {
  Broadcast<int> b;
  EXPECT_FALSE(b.valid());
  EXPECT_DEATH((void)b.value(), "empty Broadcast");
}

std::shared_ptr<Accumulator<i64>> sum_accumulator() {
  return std::make_shared<Accumulator<i64>>(
      0, [](i64& into, i64&& delta) { into += delta; });
}

TEST(Accumulator, SumSemantics) {
  auto acc = sum_accumulator();
  acc->add_once(1, 5, 8);
  acc->add_once(2, 7, 8);
  EXPECT_EQ(acc->value(), 12);
  EXPECT_EQ(acc->total_bytes(), 16u);
  EXPECT_EQ(acc->updates(), 2u);
}

TEST(Accumulator, CustomMerge) {
  Accumulator<std::vector<int>> acc(
      {}, [](std::vector<int>& into, std::vector<int>&& delta) {
        for (const int x : delta) into.push_back(x);
      });
  acc.add_once(1, {1, 2}, 8);
  acc.add_once(2, {3}, 4);
  EXPECT_EQ(acc.value(), (std::vector<int>{1, 2, 3}));
}

TEST(Accumulator, NetBytesCountedInTaskScope) {
  WorkCounters wc;
  auto acc = sum_accumulator();
  {
    ScopedCounters scope(&wc);
    acc->add_once(1, 1, 123);
  }
  EXPECT_EQ(wc.net_bytes, 123u);
}

TEST(Accumulator, ConcurrentAddsFromTasks) {
  ClusterConfig cfg;
  cfg.executors = 4;
  cfg.host_threads = 4;
  cfg.straggler.fraction = 0.0;
  SparkContext ctx(cfg);
  auto acc = ctx.accumulator<i64>(0, [](i64& into, i64&& d) { into += d; });
  auto rdd = ctx.generate<int>([](u32) { return std::vector<int>(10, 1); },
                               64, "gen");
  ctx.foreach_partition(*rdd, [&acc](u32 p, std::vector<int>&& data) {
    i64 sum = 0;
    for (const int x : data) sum += x;
    acc->add_once(p, sum, sizeof(i64));
  });
  EXPECT_EQ(acc->value(), 640);
  EXPECT_EQ(acc->updates(), 64u);
}

TEST(Accumulator, PaperUsage_PartialClustersTravelViaAccumulator) {
  // The pattern Algorithm 2 lines 26-28 relies on: executors append partial
  // results; the driver reads the merged collection after the job barrier.
  ClusterConfig cfg;
  cfg.executors = 3;
  cfg.straggler.fraction = 0.0;
  SparkContext ctx(cfg);
  using Partials = std::vector<std::pair<u32, int>>;
  auto acc = ctx.accumulator<Partials>(
      {}, [](Partials& into, Partials&& delta) {
        for (auto& kv : delta) into.push_back(kv);
      });
  auto rdd = ctx.generate<int>(
      [](u32 p) { return std::vector<int>{static_cast<int>(p) * 10}; }, 6,
      "gen");
  ctx.foreach_partition(*rdd, [&acc](u32 p, std::vector<int>&& data) {
    acc->add_once(p, {{p, data[0]}}, 16);
  });
  EXPECT_EQ(acc->value().size(), 6u);
  EXPECT_EQ(acc->total_bytes(), 96u);
}

// --- add_once job scoping (the checkpoint/resume contract) -----------------

TEST(Accumulator, AddOnceDedupsByTag) {
  auto acc = sum_accumulator();
  acc->add_once(7, 5, 8);
  acc->add_once(7, 5, 8);  // speculative duplicate: ignored
  EXPECT_EQ(acc->value(), 5);
  EXPECT_EQ(acc->duplicates_ignored(), 1u);
  EXPECT_EQ(acc->pending_tags(), 1u);
  // The dropped duplicate still paid its wire bytes.
  EXPECT_EQ(acc->total_bytes(), 8u);
}

TEST(Accumulator, BeginJobSameScopeKeepsTags) {
  auto acc = sum_accumulator();
  acc->begin_job(0xabc);
  acc->add_once(1, 10, 0);
  acc->begin_job(0xabc);  // re-entering the SAME job: dedup state survives
  acc->add_once(1, 10, 0);
  EXPECT_EQ(acc->value(), 10);
  EXPECT_EQ(acc->duplicates_ignored(), 1u);
}

TEST(Accumulator, BeginJobNewScopeClearsTags) {
  auto acc = sum_accumulator();
  acc->begin_job(0xabc);
  acc->add_once(1, 10, 0);
  EXPECT_EQ(acc->pending_tags(), 1u);
  // A different job fingerprint reuses tag values freely: the tag set is
  // bounded by ONE job's partitions, not the accumulator's whole lifetime.
  acc->begin_job(0xdef);
  EXPECT_EQ(acc->pending_tags(), 0u);
  acc->add_once(1, 32, 0);
  EXPECT_EQ(acc->value(), 42);
  EXPECT_EQ(acc->duplicates_ignored(), 0u);
}

TEST(Accumulator, CommitJobClearsTags) {
  auto acc = sum_accumulator();
  acc->begin_job(0xabc);
  acc->add_once(1, 10, 0);
  acc->add_once(2, 10, 0);
  EXPECT_EQ(acc->pending_tags(), 2u);
  acc->commit_job();
  EXPECT_EQ(acc->pending_tags(), 0u);
  // The merged value itself is NOT reset — only the dedup bookkeeping.
  EXPECT_EQ(acc->value(), 20);
}

}  // namespace
}  // namespace sdb::minispark
