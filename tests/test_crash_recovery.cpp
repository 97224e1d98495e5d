// Kill-recover equivalence harness — the durability layer's acceptance test.
//
// Three surfaces, all driven by real process death or simulated crashes at
// scheduled fault-plan points:
//
//   1. Job checkpoint/restart (spark + mr engines): fork() a worker child
//      that runs the pipeline with --checkpoint-dir semantics and a fault
//      plan that SIGKILLs it mid-checkpoint (torn record, staged-but-
//      unrenamed record, committed record). The parent reaps the corpse,
//      re-runs with resume=true, and asserts the resumed labeling is
//      BYTE-IDENTICAL to an uninterrupted run and cluster-isomorphic to
//      sequential DBSCAN. Grid: engine x crash site x crash offset x
//      dataset seed (> 100 cells).
//   2. Registry WAL (serve): fork() a child that mutates a durable
//      ModelRegistry and dies mid-WAL-append. The parent reopens the WAL
//      directory and asserts the registry republishes exactly the last
//      committed epoch, with exactly the committed prefix of mutations —
//      computed by simulating the append sequence.
//   3. Durable MiniDfs: in-process crashes via a throwing crash handler at
//      the atomic-publish points; a reopened namenode must serve the old
//      committed version, never a torn mix.
//
// Crash scheduling uses the deterministic FaultPlan grammar
// (`site:every=1,after=K,budget=1`): the K-th site hit passes, hit K+1
// crashes. The default crash handler raises SIGKILL — the child dies
// exactly like `kill -9`, no destructors, no atexit.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <string>
#include <tuple>

#include "core/dbscan_seq.hpp"
#include "core/mr_dbscan.hpp"
#include "core/quality.hpp"
#include "core/spark_dbscan.hpp"
#include "dfs/mini_dfs.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injection.hpp"
#include "serve/model_registry.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/generators.hpp"
#include "util/rng.hpp"

namespace sdb::dbscan {
namespace {

namespace fs = std::filesystem;

#ifdef SDB_FAULT_INJECTION

enum class Engine { kSpark, kMapReduce };

const char* engine_name(Engine e) {
  return e == Engine::kSpark ? "spark" : "mr";
}

PointSet make_points(u64 seed) {
  Rng rng(seed);
  synth::GaussianMixtureConfig cfg;
  cfg.n = 240;
  cfg.dim = 2;
  cfg.clusters = 3;
  cfg.sigma = 0.4;
  cfg.noise_fraction = 0.08;
  cfg.box_side = 24.0;
  return synth::gaussian_clusters(cfg, rng);
}

constexpr DbscanParams kParams{0.8, 5};
constexpr u32 kPartitions = 4;

struct EngineRun {
  Clustering clustering;
  u64 resumed = 0;
  u64 executed = 0;
};

EngineRun run_engine(Engine engine, const PointSet& ps,
                     const std::string& ckpt_dir, bool resume,
                     const std::string& mr_work_dir) {
  if (engine == Engine::kSpark) {
    minispark::ClusterConfig ccfg;
    ccfg.executors = 2;
    ccfg.straggler.fraction = 0.0;
    minispark::SparkContext ctx(ccfg);
    SparkDbscanConfig cfg;
    cfg.params = kParams;
    cfg.partitions = kPartitions;
    cfg.checkpoint_dir = ckpt_dir;
    cfg.resume = resume;
    SparkDbscan dbscan(ctx, cfg);
    auto report = dbscan.run(ps);
    return {std::move(report.clustering), report.resumed_partitions,
            report.executed_partitions};
  }
  MRDbscanConfig cfg;
  cfg.params = kParams;
  cfg.partitions = kPartitions;
  cfg.mr.work_dir = mr_work_dir;
  cfg.mr.cores = 2;
  cfg.checkpoint_dir = ckpt_dir;
  cfg.resume = resume;
  auto report = mr_dbscan(ps, cfg);
  return {std::move(report.clustering), report.resumed_partitions,
          report.executed_partitions};
}

/// Fork a worker that runs the pipeline under `spec`; returns the child's
/// wait status. The child never returns: it either dies at the crash point
/// (SIGKILL via the default crash handler) or finishes and _exit(0)s.
int run_killed_child(Engine engine, const PointSet& ps,
                     const std::string& ckpt_dir, const std::string& spec,
                     const std::string& mr_work_dir) {
  const pid_t pid = fork();
  if (pid == 0) {
    // Child: arm the plan, run, die. No gtest machinery in here.
    auto* plan = new fault::ScopedFaultPlan(spec);  // leaked on purpose
    (void)plan;
    (void)run_engine(engine, ps, ckpt_dir, /*resume=*/false, mr_work_dir);
    _exit(0);
  }
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  return status;
}

// --- 1. job checkpoint/restart kill grid -----------------------------------

// (site, records committed before the crash given `after=K`).
using CrashParam = std::tuple<Engine, const char*, u32, u64>;

class KillRecover : public ::testing::TestWithParam<CrashParam> {};

TEST_P(KillRecover, ResumedRunIsByteIdenticalToUninterrupted) {
  const auto [engine, site, after, data_seed] = GetParam();
  const std::string spec = "seed=1;" + std::string(site) +
                           ":every=1,after=" + std::to_string(after) +
                           ",budget=1";
  SCOPED_TRACE("crash spec: " + spec);

  const PointSet ps = make_points(data_seed);

  const std::string tag = std::string(engine_name(engine)) + "_" +
                          std::to_string(after) + "_" +
                          std::to_string(data_seed) + "_" +
                          std::to_string(::getpid());
  const fs::path scratch = fs::temp_directory_path() / ("sdb_crash_" + tag);
  fs::remove_all(scratch);
  const std::string ckpt_dir = (scratch / "ckpt").string();

  // Fork FIRST: the worker child must not inherit thread pools or other
  // process state from a previous pipeline run.
  const int status = run_killed_child(engine, ps, ckpt_dir, spec,
                                      (scratch / "mr_child").string());
  // With 4 partitions the save site is hit 4 times; after <= 2 always
  // crashes. The child must have died by SIGKILL, not exited.
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited " << WEXITSTATUS(status);
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // Oracle 1: sequential DBSCAN (isomorphism).
  const KdTree tree(ps);
  const auto seq = dbscan_sequential(ps, tree, kParams);
  // Oracle 2: the same engine, uninterrupted, fresh checkpoint dir
  // (byte-identity).
  const EngineRun clean =
      run_engine(engine, ps, (scratch / "ckpt_clean").string(),
                 /*resume=*/false, (scratch / "mr_clean").string());

  // The resumed run: recover the committed records, execute the rest.
  const EngineRun resumed = run_engine(engine, ps, ckpt_dir, /*resume=*/true,
                                       (scratch / "mr_resume").string());

  // The crash left behind exactly the records committed before the fatal
  // hit: `after` for the torn/staged sites, `after + 1` once the rename
  // happened. (Sites are hit once per partition save.)
  const bool committed_at_crash =
      std::string(site) == "ckpt.crash.after_rename";
  const u64 expect_resumed = after + (committed_at_crash ? 1 : 0);
  EXPECT_EQ(resumed.resumed, expect_resumed);
  EXPECT_EQ(resumed.executed, kPartitions - expect_resumed);

  // Byte-identical to the uninterrupted run...
  EXPECT_EQ(resumed.clustering.labels, clean.clustering.labels);
  EXPECT_EQ(resumed.clustering.num_clusters, clean.clustering.num_clusters);
  // ...and cluster-isomorphic to the sequential oracle.
  const auto eq = check_equivalence(ps, tree, kParams, seq.core_points,
                                    seq.clustering, resumed.clustering);
  EXPECT_TRUE(eq.equivalent)
      << engine_name(engine) << " :: core=" << eq.core_mismatches
      << " noise=" << eq.noise_mismatches
      << " border=" << eq.border_violations << " " << eq.detail;

  fs::remove_all(scratch);
}

std::string crash_case_name(const ::testing::TestParamInfo<CrashParam>& info) {
  std::string site = std::get<1>(info.param);
  for (char& c : site) {
    if (c == '.') c = '_';
  }
  return std::string(engine_name(std::get<0>(info.param))) + "_" + site +
         "_k" + std::to_string(std::get<2>(info.param)) + "_d" +
         std::to_string(std::get<3>(info.param));
}

// 2 engines x 3 crash sites x 3 offsets x 6 datasets = 108 kill cells.
INSTANTIATE_TEST_SUITE_P(
    Grid, KillRecover,
    ::testing::Combine(
        ::testing::Values(Engine::kSpark, Engine::kMapReduce),
        ::testing::Values("ckpt.crash.mid_write", "ckpt.crash.before_rename",
                          "ckpt.crash.after_rename"),
        ::testing::Values(0u, 1u, 2u),
        ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u)),
    crash_case_name);

// A completed job commits (deletes) its checkpoint: rerunning with resume
// must start from zero, not trivially "resume" a finished job.
TEST(KillRecover, CompletedJobLeavesNoCheckpointBehind) {
  const PointSet ps = make_points(21);
  const fs::path scratch =
      fs::temp_directory_path() /
      ("sdb_crash_commit_" + std::to_string(::getpid()));
  fs::remove_all(scratch);
  const EngineRun first = run_engine(Engine::kSpark, ps,
                                     (scratch / "ckpt").string(),
                                     /*resume=*/false, "");
  EXPECT_EQ(first.executed, kPartitions);
  const EngineRun second = run_engine(Engine::kSpark, ps,
                                      (scratch / "ckpt").string(),
                                      /*resume=*/true, "");
  EXPECT_EQ(second.resumed, 0u);  // nothing left to resume
  EXPECT_EQ(second.executed, kPartitions);
  EXPECT_EQ(first.clustering.labels, second.clustering.labels);
  fs::remove_all(scratch);
}

// resume=false wipes a prior (crashed) run's records instead of reusing.
TEST(KillRecover, ResumeFalseWipesPriorRecords) {
  const PointSet ps = make_points(22);
  const fs::path scratch =
      fs::temp_directory_path() /
      ("sdb_crash_wipe_" + std::to_string(::getpid()));
  fs::remove_all(scratch);
  const std::string ckpt_dir = (scratch / "ckpt").string();
  const int status =
      run_killed_child(Engine::kSpark, ps, ckpt_dir,
                       "seed=1;ckpt.crash.after_rename:every=1,after=1,budget=1",
                       "");
  ASSERT_TRUE(WIFSIGNALED(status));
  const EngineRun fresh =
      run_engine(Engine::kSpark, ps, ckpt_dir, /*resume=*/false, "");
  EXPECT_EQ(fresh.resumed, 0u);
  EXPECT_EQ(fresh.executed, kPartitions);
  fs::remove_all(scratch);
}

// A checkpoint written by a DIFFERENT job (other eps) must not be resumed:
// the fingerprint embedded in every record keeps stale state out.
TEST(KillRecover, DifferentJobFingerprintIgnoresStaleRecords) {
  const PointSet ps = make_points(23);
  const fs::path scratch =
      fs::temp_directory_path() /
      ("sdb_crash_fp_" + std::to_string(::getpid()));
  fs::remove_all(scratch);
  const std::string ckpt_dir = (scratch / "ckpt").string();
  const int status =
      run_killed_child(Engine::kSpark, ps, ckpt_dir,
                       "seed=1;ckpt.crash.after_rename:every=1,after=2,budget=1",
                       "");
  ASSERT_TRUE(WIFSIGNALED(status));

  minispark::ClusterConfig ccfg;
  ccfg.executors = 2;
  ccfg.straggler.fraction = 0.0;
  minispark::SparkContext ctx(ccfg);
  SparkDbscanConfig cfg;
  cfg.params = {0.5, 4};  // different job identity
  cfg.partitions = kPartitions;
  cfg.checkpoint_dir = ckpt_dir;
  cfg.resume = true;
  SparkDbscan dbscan(ctx, cfg);
  const auto report = dbscan.run(ps);
  EXPECT_EQ(report.resumed_partitions, 0u);
  EXPECT_EQ(report.executed_partitions, kPartitions);
  fs::remove_all(scratch);
}

// --- 2. registry WAL kill grid ---------------------------------------------

constexpr int kServeDim = 2;
constexpr int kServeInserts = 12;

/// The append sequence a child produces: construction publishes epoch 1,
/// every insert appends one record, every `publish_every`-th insert appends
/// a publish marker. Returns (expected epoch, expected active points) after
/// a crash that loses append index `crash_at` and everything after it.
std::pair<u64, size_t> simulate_committed(u64 publish_every, size_t crash_at) {
  struct Ev {
    bool publish;
    u64 epoch;
  };
  std::vector<Ev> appends;
  u64 epoch = 1;
  appends.push_back({true, epoch});  // construction's empty-model publish
  for (int i = 0; i < kServeInserts; ++i) {
    appends.push_back({false, 0});
    if ((static_cast<u64>(i) + 1) % publish_every == 0) {
      appends.push_back({true, ++epoch});
    }
  }
  const size_t upto = std::min(crash_at, appends.size());
  u64 committed_epoch = 0;
  size_t committed_points = 0;
  size_t inserts_seen = 0;
  for (size_t i = 0; i < upto; ++i) {
    if (appends[i].publish) {
      committed_epoch = appends[i].epoch;
      committed_points = inserts_seen;
    } else {
      ++inserts_seen;
    }
  }
  // Epoch 0 is unreachable: a recovered registry always republishes, and a
  // registry with no committed history publishes the empty epoch 1.
  return {committed_epoch == 0 ? 1 : committed_epoch, committed_points};
}

using ServeParam = std::tuple<u64, u32>;  // publish_every, crash append index

class ServeKillRecover : public ::testing::TestWithParam<ServeParam> {};

TEST_P(ServeKillRecover, RestartedRegistryRepublishesLastCommittedEpoch) {
  const auto [publish_every, crash_at] = GetParam();
  const std::string spec = "seed=1;wal.crash.mid_append:every=1,after=" +
                           std::to_string(crash_at) + ",budget=1";
  SCOPED_TRACE("crash spec: " + spec);
  const fs::path scratch =
      fs::temp_directory_path() /
      ("sdb_crash_serve_p" + std::to_string(publish_every) + "_k" +
       std::to_string(crash_at) + "_" + std::to_string(::getpid()));
  fs::remove_all(scratch);

  serve::ModelRegistry::Config cfg;
  cfg.params = {1.5, 3};
  cfg.publish_every = publish_every;
  cfg.wal_dir = (scratch / "wal").string();

  const pid_t pid = fork();
  if (pid == 0) {
    auto* plan = new fault::ScopedFaultPlan(spec);  // leaked on purpose
    (void)plan;
    serve::ModelRegistry registry(cfg, kServeDim);
    for (int i = 0; i < kServeInserts; ++i) {
      const double coords[kServeDim] = {static_cast<double>(i),
                                        static_cast<double>(i)};
      registry.insert(coords);
    }
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  const auto [expect_epoch, expect_points] =
      simulate_committed(publish_every, crash_at);
  if (WIFEXITED(status)) {
    // crash_at beyond the child's total appends: it finished untouched.
    EXPECT_EQ(WEXITSTATUS(status), 0);
  } else {
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
  }

  // The survivor: same WAL dir, no fault plan.
  serve::ModelRegistry recovered(cfg, kServeDim);
  EXPECT_EQ(recovered.epoch(), expect_epoch);
  EXPECT_EQ(recovered.active_points(), expect_points);
  EXPECT_EQ(recovered.model()->summary().epoch, expect_epoch);
  fs::remove_all(scratch);
}

// publish_every in {1, 3} x crash at append 0..14 = 30 serve kill cells
// (indices past the child's append count double as clean-shutdown cells).
INSTANTIATE_TEST_SUITE_P(
    Grid, ServeKillRecover,
    ::testing::Combine(::testing::Values(1u, 3u),
                       ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                         9u, 10u, 11u, 12u, 13u, 14u)),
    [](const ::testing::TestParamInfo<ServeParam>& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

// Compaction survives a restart: log folded into a snapshot, state intact.
TEST(ServeKillRecover, CompactionPreservesCommittedStateAcrossRestart) {
  const fs::path scratch =
      fs::temp_directory_path() /
      ("sdb_crash_compact_" + std::to_string(::getpid()));
  fs::remove_all(scratch);
  serve::ModelRegistry::Config cfg;
  cfg.params = {1.5, 3};
  cfg.publish_every = 4;
  cfg.wal_dir = (scratch / "wal").string();
  u64 epoch_before = 0;
  size_t points_before = 0;
  {
    serve::ModelRegistry registry(cfg, kServeDim);
    for (int i = 0; i < 10; ++i) {
      const double coords[kServeDim] = {static_cast<double>(i), 0.0};
      registry.insert(coords);
    }
    registry.try_remove(3);
    epoch_before = registry.compact();
    points_before = registry.active_points();
  }
  serve::ModelRegistry recovered(cfg, kServeDim);
  EXPECT_EQ(recovered.epoch(), epoch_before);
  EXPECT_EQ(recovered.active_points(), points_before);
  EXPECT_EQ(recovered.wal()->generation(), 1u);
  fs::remove_all(scratch);
}

// --- 3. durable MiniDfs crash points ---------------------------------------

/// In-process "crash": the handler throws instead of SIGKILLing, so one
/// test can crash a write and then immediately play the recovery role.
struct SimulatedCrash {};
[[noreturn]] void throwing_handler(std::string_view) { throw SimulatedCrash{}; }

class ScopedThrowingCrash {
 public:
  ScopedThrowingCrash() { prev_ = fault::set_crash_handler(&throwing_handler); }
  ~ScopedThrowingCrash() { fault::set_crash_handler(prev_); }

 private:
  fault::CrashHandler prev_;
};

class DurableDfsCrash : public ::testing::Test {
 protected:
  DurableDfsCrash()
      : root_((fs::temp_directory_path() /
               ("sdb_crash_dfs_p" + std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(root_);
  }
  ~DurableDfsCrash() override { fs::remove_all(root_); }
  std::string root_;
};

TEST_F(DurableDfsCrash, CrashBeforePublishLeavesOldVersionReadable) {
  const std::string v1(40, 'a');
  {
    dfs::MiniDfs dfs(root_, 16, 4, 2, dfs::Durability::kDurable);
    dfs.write("/f", v1);
    ScopedThrowingCrash crash_mode;
    fault::ScopedFaultPlan plan("seed=1;dfs.crash.before_publish:every=1");
    EXPECT_THROW(dfs.write("/f", std::string(40, 'b')), SimulatedCrash);
  }
  dfs::MiniDfs reopened(root_, 16, 4, 2, dfs::Durability::kDurable);
  EXPECT_EQ(reopened.recovered_files(), 1u);
  EXPECT_EQ(reopened.read("/f"), v1);       // old version, whole
  EXPECT_GT(reopened.orphans_collected(), 0u);  // staged v2 blocks GC'd
}

TEST_F(DurableDfsCrash, CrashMidBlockNeverReadsBackTorn) {
  const std::string v1(40, 'a');
  {
    dfs::MiniDfs dfs(root_, 16, 4, 2, dfs::Durability::kDurable);
    dfs.write("/f", v1);
    ScopedThrowingCrash crash_mode;
    fault::ScopedFaultPlan plan("seed=1;dfs.crash.mid_block:every=1,after=1");
    EXPECT_THROW(dfs.write("/f", std::string(40, 'b')), SimulatedCrash);
  }
  dfs::MiniDfs reopened(root_, 16, 4, 2, dfs::Durability::kDurable);
  EXPECT_EQ(reopened.read("/f"), v1);
  EXPECT_TRUE(reopened.verify("/f").empty());
}

TEST_F(DurableDfsCrash, CrashAtManifestRenameKeepsCommittedCatalog) {
  const std::string v1 = "committed-content";
  {
    dfs::MiniDfs dfs(root_, 16, 4, 2, dfs::Durability::kDurable);
    dfs.write("/f", v1);
    ScopedThrowingCrash crash_mode;
    // /f's publish happened before the plan was armed, so the first hit is
    // /g's manifest rename: new catalog staged to tmp, never renamed.
    fault::ScopedFaultPlan plan(
        "seed=1;dfs.crash.manifest_rename:every=1,budget=1");
    EXPECT_THROW(dfs.write("/g", "never-published"), SimulatedCrash);
  }
  dfs::MiniDfs reopened(root_, 16, 4, 2, dfs::Durability::kDurable);
  EXPECT_EQ(reopened.read("/f"), v1);
  EXPECT_FALSE(reopened.exists("/g"));  // its manifest never committed
}

TEST_F(DurableDfsCrash, MissingBlockDropsFileAtRecoveryInsteadOfShortRead) {
  // Satellite invariant: a file whose manifest entry lost a physical block
  // must vanish at recovery — never read back short-but-"valid".
  u64 victim_block = 0;
  {
    dfs::MiniDfs dfs(root_, 8, 4, 1, dfs::Durability::kDurable);
    dfs.write("/f", std::string(24, 'x'));  // 3 blocks
    victim_block = dfs.stat("/f").blocks[1].id;
  }
  fs::remove(fs::path(root_) / "blocks" /
             ("blk_" + std::to_string(victim_block)));
  dfs::MiniDfs reopened(root_, 8, 4, 1, dfs::Durability::kDurable);
  EXPECT_EQ(reopened.dropped_files(), 1u);
  EXPECT_FALSE(reopened.exists("/f"));
}

TEST_F(DurableDfsCrash, TruncatedBlockDropsFileAtRecovery) {
  u64 victim_block = 0;
  {
    dfs::MiniDfs dfs(root_, 8, 4, 1, dfs::Durability::kDurable);
    dfs.write("/f", std::string(24, 'x'));
    victim_block = dfs.stat("/f").blocks[0].id;
  }
  const fs::path block =
      fs::path(root_) / "blocks" / ("blk_" + std::to_string(victim_block));
  fs::resize_file(block, 3);  // torn: shorter than the manifest says
  dfs::MiniDfs reopened(root_, 8, 4, 1, dfs::Durability::kDurable);
  EXPECT_EQ(reopened.dropped_files(), 1u);
  EXPECT_FALSE(reopened.exists("/f"));
}

TEST_F(DurableDfsCrash, DurableCatalogSurvivesCleanReopen) {
  const std::string content = "zero\none\ntwo\nthree\n";
  {
    dfs::MiniDfs dfs(root_, 6, 4, 2, dfs::Durability::kDurable);
    dfs.write("/data/points.txt", content);
  }
  dfs::MiniDfs reopened(root_, 6, 4, 2, dfs::Durability::kDurable);
  EXPECT_EQ(reopened.recovered_files(), 1u);
  EXPECT_EQ(reopened.read("/data/points.txt"), content);
  // The concurrent read the driver takes survives recovery too.
  EXPECT_EQ(reopened.read("/data/points.txt", 4), content);
}

#endif  // SDB_FAULT_INJECTION

}  // namespace
}  // namespace sdb::dbscan
