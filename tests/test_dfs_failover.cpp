// Datanode failure simulation: reads fail over to surviving replicas and
// only abort when a block's entire replica set is gone — HDFS's replication
// contract, which the paper leans on for fault tolerance.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "dfs/mini_dfs.hpp"
#include "fault/fault_plan.hpp"
#include "util/counters.hpp"

namespace sdb::dfs {
namespace {

namespace fs = std::filesystem;

class DfsFailoverTest : public ::testing::Test {
 protected:
  // Per-process root: `ctest -j` runs each case as its own process, and a
  // shared root means one test's remove_all() deletes another's live block
  // files mid-run.
  DfsFailoverTest()
      : root_((fs::temp_directory_path() /
               ("sdb_dfs_failover_p" + std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(root_);
  }
  ~DfsFailoverTest() override { fs::remove_all(root_); }
  std::string root_;
};

TEST_F(DfsFailoverTest, ReadsSurviveSingleNodeFailure) {
  MiniDfs dfs(root_, 8, /*datanodes=*/4, /*replication=*/3);
  const std::string content = "0123456789abcdefghij";
  dfs.write("/f", content);
  dfs.fail_datanode(0);
  EXPECT_EQ(dfs.read("/f"), content);  // replicas on other nodes serve
}

TEST_F(DfsFailoverTest, FailoversCounted) {
  MiniDfs dfs(root_, 8, 4, 3);
  dfs.write("/f", std::string(32, 'x'));
  // Fail the primary replica of at least one block: with round-robin
  // placement starting at node 0, block 0's replicas are {0,1,2}.
  dfs.fail_datanode(0);
  EXPECT_EQ(dfs.failovers(), 0u);
  (void)dfs.read("/f");
  EXPECT_GT(dfs.failovers(), 0u);
}

TEST_F(DfsFailoverTest, AllReplicasDeadAborts) {
  MiniDfs dfs(root_, 8, 3, 3);  // every block replicated on all 3 nodes
  dfs.write("/f", "data!");
  dfs.fail_datanode(0);
  dfs.fail_datanode(1);
  dfs.fail_datanode(2);
  EXPECT_DEATH((void)dfs.read("/f"), "unavailable");
}

TEST_F(DfsFailoverTest, RecoveryRestoresService) {
  MiniDfs dfs(root_, 8, 2, 2);
  dfs.write("/f", "hello");
  dfs.fail_datanode(0);
  dfs.fail_datanode(1);
  dfs.recover_datanode(1);
  EXPECT_TRUE(dfs.datanode_alive(1));
  EXPECT_FALSE(dfs.datanode_alive(0));
  EXPECT_EQ(dfs.read("/f"), "hello");
}

TEST_F(DfsFailoverTest, TextSplitsAlsoFailOver) {
  MiniDfs dfs(root_, 6, 4, 3);
  std::string content;
  for (int i = 0; i < 10; ++i) content += "rec" + std::to_string(i) + "\n";
  dfs.write("/f", content);
  dfs.fail_datanode(1);
  EXPECT_EQ(dfs.read("/f", 4), content);
}

TEST_F(DfsFailoverTest, PartialReplicaLossOneHealthyReplicaServesAndCounts) {
  // Regression: lose replicas down to a SINGLE healthy one and the read
  // must still succeed, with every skipped dead primary accounted both in
  // the MiniDfs failover tally and in the thread-local WorkCounters metric
  // (so the cost model sees failover reads on the executor data path).
  MiniDfs dfs(root_, 8, /*datanodes=*/4, /*replication=*/3);
  const std::string content(24, 'z');  // 3 blocks: replicas {0,1,2},{1,2,3},{2,3,0}
  dfs.write("/f", content);
  // Block 0 keeps exactly one healthy replica (node 2).
  dfs.fail_datanode(0);
  dfs.fail_datanode(1);
  EXPECT_EQ(dfs.failovers(), 0u);
  WorkCounters wc;
  {
    ScopedCounters scope(&wc);
    EXPECT_EQ(dfs.read("/f"), content);
  }
  // Blocks 0 and 1 both had dead primaries; block 2's primary (node 2) is
  // alive. The counters metric mirrors the DFS-side tally exactly.
  EXPECT_EQ(dfs.failovers(), 2u);
  EXPECT_EQ(wc.dfs_failovers, 2u);
  // Reads outside a counter scope still fail over (metric is best-effort):
  // blocks 0 and 1 fail over again.
  EXPECT_EQ(dfs.read("/f"), content);
  EXPECT_EQ(dfs.failovers(), 4u);
  EXPECT_EQ(wc.dfs_failovers, 2u);
}

#ifdef SDB_FAULT_INJECTION
TEST_F(DfsFailoverTest, InjectedReadFaultsAreRetriedToSuccess) {
  MiniDfs dfs(root_, 8, 4, 3);
  const std::string content(32, 'r');
  dfs.write("/f", content);
  fault::ScopedFaultPlan chaos(
      "seed=31;dfs.read.fail:p=0.5,budget=3;dfs.read.slow:every=2,budget=4");
  EXPECT_EQ(dfs.read("/f"), content);  // recovery is internal
  EXPECT_EQ(dfs.io_retries(), chaos.plan().fires("dfs.read.fail"));
  EXPECT_GT(dfs.io_retries(), 0u);
  EXPECT_GT(dfs.io_backoff_s(), 0.0);
  EXPECT_GT(dfs.slow_reads(), 0u);
}

TEST_F(DfsFailoverTest, InjectedReadFaultBeyondRetryBudgetEscapes) {
  MiniDfs dfs(root_, 8, 4, 3);
  dfs.write("/f", "payload");
  RetryPolicy tight;
  tight.max_attempts = 2;
  dfs.set_io_retry(tight);
  fault::ScopedFaultPlan chaos("seed=32;dfs.read.fail");  // every attempt
  EXPECT_THROW((void)dfs.read("/f"), DfsTransientError);
}

TEST_F(DfsFailoverTest, TornWriteIsRewrittenByRetry) {
  MiniDfs dfs(root_, 8, 4, 3);
  const std::string content(24, 'w');
  {
    fault::ScopedFaultPlan chaos("seed=33;dfs.write.torn:every=2,budget=2");
    dfs.write("/f", content);
    EXPECT_EQ(dfs.torn_writes(), 2u);
  }
  // Every block checksum-verifies and reads back whole: the torn halves
  // were overwritten by the retried full-block writes.
  EXPECT_TRUE(dfs.verify("/f").empty());
  EXPECT_EQ(dfs.read("/f"), content);
}

TEST_F(DfsFailoverTest, ConcurrentReadRecoversInjectedFaults) {
  MiniDfs dfs(root_, 8, 4, 3);
  std::string content;
  for (int i = 0; i < 400; ++i) {
    content.push_back(static_cast<char>('a' + i % 26));
  }
  dfs.write("/f", content);  // 50 blocks, all datanodes healthy
  // More attempts than the plan has read failures: no block can exhaust
  // its retries, whichever blocks the failures land on.
  RetryPolicy patient;
  patient.max_attempts = 13;
  dfs.set_io_retry(patient);
  fault::ScopedFaultPlan chaos(
      "seed=35;dfs.read.fail:p=0.3,budget=12;dfs.read.replica:p=0.3,budget=9");
  WorkCounters wc;
  {
    ScopedCounters scope(&wc);
    EXPECT_EQ(dfs.read("/f", 4), content);
  }
  // Every failed attempt was retried once, and every injected dead primary
  // failed over once, whatever thread read the block.
  EXPECT_GT(chaos.plan().fires("dfs.read.fail"), 0u);
  EXPECT_EQ(dfs.io_retries(), chaos.plan().fires("dfs.read.fail"));
  EXPECT_GT(chaos.plan().fires("dfs.read.replica"), 0u);
  EXPECT_EQ(dfs.failovers(), chaos.plan().fires("dfs.read.replica"));
  EXPECT_EQ(wc.dfs_failovers, dfs.failovers());
  EXPECT_EQ(wc.bytes_read, content.size());
}

TEST_F(DfsFailoverTest, InjectedReplicaFaultUsesTheFailoverPath) {
  MiniDfs dfs(root_, 8, 4, 3);
  const std::string content(16, 'q');
  dfs.write("/f", content);  // all datanodes healthy
  fault::ScopedFaultPlan chaos("seed=34;dfs.read.replica:budget=1");
  WorkCounters wc;
  {
    ScopedCounters scope(&wc);
    EXPECT_EQ(dfs.read("/f"), content);
  }
  // The injected dead-primary is indistinguishable from a real one to the
  // accounting: same failover tally, same counters metric.
  EXPECT_EQ(dfs.failovers(), 1u);
  EXPECT_EQ(wc.dfs_failovers, 1u);
}
#endif  // SDB_FAULT_INJECTION

TEST_F(DfsFailoverTest, ReplicationOneIsFragile) {
  MiniDfs dfs(root_, 8, 4, 1);
  dfs.write("/f", std::string(64, 'y'));  // blocks spread across nodes
  dfs.fail_datanode(0);
  // Some block had its only replica on node 0 (round-robin placement).
  EXPECT_DEATH((void)dfs.read("/f"), "unavailable");
}

}  // namespace
}  // namespace sdb::dfs
