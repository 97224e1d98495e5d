// Chaos equivalence sweep — the paper's correctness claim, now under faults.
//
// For every (dataset shape × partitioner × fault-plan seed × engine) cell,
// run the full pipeline with a FaultPlan injecting task failures, hangs,
// lost accumulator updates, speculative duplicates, and DFS read faults,
// then assert:
//   1. the recovered clustering is cluster-isomorphic to sequential DBSCAN
//      (check_equivalence + exact cluster/noise counts + rand index);
//   2. replaying the SAME spec string reproduces a byte-identical fault
//      sequence (log_digest equality) and identical labels.
//
// Every injected fault here is transient-by-budget: each retry loop allows
// more attempts than the summed budgets of the sites that can fail one of
// its attempts, so recovery — retries, timeouts, re-execution, idempotent
// accumulator merge — must make the run succeed, not merely survive.
// Chaos plans run with host_threads=1 (set explicitly: the ClusterConfig
// default is every core) so the fault log is totally ordered and the
// digest is deterministic.
//
// Repro cookbook: every failure message carries the one-line fault spec;
//   ctest -R chaos            # run the whole chaos surface
//   FaultPlan::parse(spec)    # re-arm the exact failing schedule
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <optional>
#include <string>
#include <tuple>

#include "core/dbscan_seq.hpp"
#include "core/mr_dbscan.hpp"
#include "core/quality.hpp"
#include "core/spark_dbscan.hpp"
#include "dfs/mini_dfs.hpp"
#include "fault/fault_plan.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/generators.hpp"
#include "synth/io.hpp"
#include "synth/presets.hpp"
#include "util/rng.hpp"

namespace sdb::dbscan {
namespace {

namespace fs = std::filesystem;

enum class Shape { kBlobs, kUniform, kMoons, kRings, kC10k };
enum class Engine { kSpark, kMapReduce };

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kBlobs: return "blobs";
    case Shape::kUniform: return "uniform";
    case Shape::kMoons: return "moons";
    case Shape::kRings: return "rings";
    case Shape::kC10k: return "c10k";
  }
  return "?";
}

const char* engine_name(Engine e) {
  return e == Engine::kSpark ? "spark" : "mr";
}

// Smaller datasets than test_equivalence_property: each cell runs the
// pipeline twice (fault run + replay run), and the grid has 216 cells.
PointSet make_shape(Shape shape, u64 seed) {
  Rng rng(seed);
  switch (shape) {
    case Shape::kBlobs: {
      synth::GaussianMixtureConfig cfg;
      cfg.n = 400;
      cfg.dim = 2;
      cfg.clusters = 4;
      cfg.sigma = 0.4;
      cfg.noise_fraction = 0.08;
      cfg.box_side = 30.0;
      return synth::gaussian_clusters(cfg, rng);
    }
    case Shape::kUniform: {
      synth::UniformConfig cfg;
      cfg.n = 400;
      cfg.dim = 2;
      cfg.box_side = 18.0;
      return synth::uniform_points(cfg, rng);
    }
    case Shape::kMoons:
      return synth::two_moons(200, 0.04, rng);
    case Shape::kRings:
      return synth::rings(150, 2, 0.03, 60, rng);
    case Shape::kC10k:
      return synth::generate(*synth::find_preset("c10k"), 42, 0.3);
  }
  return PointSet(2);
}

DbscanParams shape_params(Shape shape) {
  switch (shape) {
    case Shape::kBlobs: return {0.8, 5};
    case Shape::kUniform: return {0.9, 4};
    case Shape::kMoons: return {0.12, 5};
    case Shape::kRings: return {0.2, 5};
    case Shape::kC10k: {
      const synth::DatasetSpec spec = *synth::find_preset("c10k");
      return {spec.eps, spec.minpts};
    }
  }
  return {1.0, 5};
}

// Fault schedules. Each converges even when every fire lands on the same
// task or block:
//  * spark: spark.task.fail, spark.task.hang (its stall reaches the 10 s
//    task timeout) and spark.acc.lost each fail a task attempt, and all
//    three can fire on one task, so run_spark allows 1 + 2 + 2 + 2 = 7
//    attempts. spark.task.duplicate reruns a task that succeeded, and the
//    dfs.read.* sites act on the driver's read before the job: only
//    dfs.read.fail fails a block-read attempt (RetryPolicy, 4 attempts).
//  * mr: each retry loop has one failing site — mr.map.fail for map
//    attempts (a speculative duplicate's included, from the same budget),
//    mr.shuffle.fail for spill fetches, mr.reduce.fail for reduce attempts
//    — and a budget of 2 against RetryPolicy's 4 attempts.
std::string spark_fault_spec(u64 seed) {
  return "seed=" + std::to_string(seed) +
         ";spark.task.fail:p=0.3,budget=2"
         ";spark.task.hang:p=0.2,budget=2"
         ";spark.acc.lost:p=0.25,budget=2"
         ";spark.task.duplicate:p=0.2,budget=2"
         ";dfs.read.fail:p=0.1,budget=2"
         ";dfs.read.slow:p=0.2,budget=3"
         ";dfs.read.replica:p=0.15,budget=2";
}

std::string mr_fault_spec(u64 seed) {
  return "seed=" + std::to_string(seed) +
         ";mr.map.fail:p=0.3,budget=2"
         ";mr.map.duplicate:p=0.25,budget=2"
         ";mr.reduce.fail:p=0.5,budget=2"
         ";mr.shuffle.fail:p=0.3,budget=2";
}

struct ChaosRun {
  Clustering clustering;
  u64 digest = 0;     ///< fault-log digest of the run
  u64 hits = 0;       ///< injection-site hits observed
  u64 fires = 0;      ///< faults actually fired
};

// One Spark pipeline execution under the given fault spec. The points are
// read back from MiniDfs so the dfs.read.* sites sit on the real data path.
ChaosRun run_spark(const dfs::MiniDfs& dfs, const DbscanParams& params,
                   PartitionerKind partitioner, const std::string& spec) {
  fault::ScopedFaultPlan chaos(spec);
  minispark::ClusterConfig ccfg;
  ccfg.executors = 3;
  ccfg.straggler.fraction = 0.0;
  ccfg.host_threads = 1;  // one thread: totally ordered fault log
  ccfg.max_task_attempts = 7;  // 1 + the budgets that fail an attempt
  minispark::SparkContext ctx(ccfg);
  SparkDbscanConfig cfg;
  cfg.params = params;
  cfg.partitions = 3;
  cfg.partitioner = partitioner;
  SparkDbscan dbscan(ctx, cfg);
  auto report = dbscan.run_from_dfs(dfs, "/points.txt");
  return {std::move(report.clustering), chaos.plan().log_digest(),
          chaos.plan().hits(), chaos.plan().fires()};
}

ChaosRun run_mr(const PointSet& ps, const DbscanParams& params,
                PartitionerKind partitioner, const std::string& spec,
                const std::string& work_dir) {
  fault::ScopedFaultPlan chaos(spec);
  MRDbscanConfig cfg;
  cfg.params = params;
  cfg.partitions = 3;
  cfg.partitioner = partitioner;
  cfg.mr.work_dir = work_dir;
  cfg.mr.cores = 3;
  auto report = mr_dbscan(ps, cfg);
  return {std::move(report.clustering), chaos.plan().log_digest(),
          chaos.plan().hits(), chaos.plan().fires()};
}

using ChaosParam = std::tuple<Shape, PartitionerKind, u64, Engine>;

class ChaosEquivalence : public ::testing::TestWithParam<ChaosParam> {};

TEST_P(ChaosEquivalence, RecoversToSequentialResultAndReplaysByteIdentically) {
  const auto [shape, partitioner, fault_seed, engine] = GetParam();
  const std::string spec = engine == Engine::kSpark
                               ? spark_fault_spec(fault_seed)
                               : mr_fault_spec(fault_seed);
  SCOPED_TRACE("fault spec: " + spec);

  const PointSet ps = make_shape(shape, 1000 + static_cast<u64>(shape));
  const DbscanParams params = shape_params(shape);
  const KdTree tree(ps);
  const auto seq = dbscan_sequential(ps, tree, params);

  // Per-process scratch: ctest -j runs every grid cell as its own process.
  const std::string tag = std::string(shape_name(shape)) + "_" +
                          partitioner_name(partitioner) + "_" +
                          std::to_string(fault_seed) + "_" +
                          std::to_string(::getpid());
  const fs::path scratch = fs::temp_directory_path() / ("sdb_chaos_" + tag);
  fs::remove_all(scratch);

  ChaosRun first, replay;
  if (engine == Engine::kSpark) {
    // Stage the input before arming the plan: the chaos surface is the
    // pipeline (reads included), not test setup.
    dfs::MiniDfs dfs((scratch / "dfs").string(), 1 << 12);
    dfs.write("/points.txt", synth::to_text(ps));
    first = run_spark(dfs, params, partitioner, spec);
    replay = run_spark(dfs, params, partitioner, spec);
  } else {
    first = run_mr(ps, params, partitioner, spec, (scratch / "mr1").string());
    replay = run_mr(ps, params, partitioner, spec, (scratch / "mr2").string());
  }

#ifdef SDB_FAULT_INJECTION
  // The pipeline really went through the injection sites. (With hooks
  // compiled out the grid degenerates to a fault-free equivalence sweep.)
  EXPECT_GT(first.hits, 0u) << engine_name(engine);
#endif

  // 1. Cluster isomorphism with the sequential oracle, faults and all.
  const auto eq = check_equivalence(ps, tree, params, seq.core_points,
                                    seq.clustering, first.clustering);
  EXPECT_TRUE(eq.equivalent)
      << shape_name(shape) << " " << partitioner_name(partitioner) << " "
      << engine_name(engine) << " :: core=" << eq.core_mismatches
      << " noise=" << eq.noise_mismatches
      << " border=" << eq.border_violations << " " << eq.detail;
  EXPECT_EQ(first.clustering.num_clusters, seq.clustering.num_clusters);
  EXPECT_EQ(first.clustering.noise_count(), seq.clustering.noise_count());
  // Border ambiguity may reassign a handful of points; at these dataset
  // sizes (n=200..400) one moved point shifts ~1% of pairs, so the rand
  // bound is looser than test_equivalence_property's n=700 sweep.
  EXPECT_GT(rand_index(seq.clustering, first.clustering), 0.99);

  // 2. Same spec, same seed -> byte-identical fault sequence and labels.
  EXPECT_EQ(first.digest, replay.digest);
  EXPECT_EQ(first.hits, replay.hits);
  EXPECT_EQ(first.fires, replay.fires);
  EXPECT_EQ(first.clustering.labels, replay.clustering.labels);

  fs::remove_all(scratch);
}

std::string chaos_case_name(const ::testing::TestParamInfo<ChaosParam>& info) {
  std::string name = shape_name(std::get<0>(info.param));
  name += "_";
  name += partitioner_name(std::get<1>(info.param));
  name += "_s" + std::to_string(std::get<2>(info.param));
  name += "_";
  name += engine_name(std::get<3>(info.param));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

// 4 shapes x 3 partitioners x 9 fault seeds x 2 engines = 216 cells.
INSTANTIATE_TEST_SUITE_P(
    Grid, ChaosEquivalence,
    ::testing::Combine(
        ::testing::Values(Shape::kBlobs, Shape::kUniform, Shape::kMoons,
                          Shape::kRings),
        ::testing::Values(PartitionerKind::kBlock, PartitionerKind::kRandom,
                          PartitionerKind::kKdSplit),
        ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u),
        ::testing::Values(Engine::kSpark, Engine::kMapReduce)),
    chaos_case_name);

// The 0.3-scale c10k preset on the spark engine, at the fault seeds where
// one task draws more failing fires than an attempt limit of 4 absorbs.
INSTANTIATE_TEST_SUITE_P(
    C10k, ChaosEquivalence,
    ::testing::Combine(::testing::Values(Shape::kC10k),
                       ::testing::Values(PartitionerKind::kBlock,
                                         PartitionerKind::kRandom,
                                         PartitionerKind::kKdSplit),
                       ::testing::Values(10u, 23u, 24u),
                       ::testing::Values(Engine::kSpark)),
    chaos_case_name);

// KNN-backend column of the chaos surface: the spark pipeline with
// backend = kKnn runs the NN-descent graph build on the driver, where the
// knn.graph.drop_edge site skips candidate evaluations. A faulted build
// must still CONVERGE — NN-descent is self-healing (a dropped candidate
// can resurface through a later round's local join), so the clustering may
// shift only within the disagreement bound — and replaying the same spec
// must reproduce a byte-identical fault sequence and labels.
class ChaosKnnBackend : public ::testing::TestWithParam<u64> {};

TEST_P(ChaosKnnBackend, FaultedGraphBuildConvergesAndReplays) {
  const u64 fault_seed = GetParam();
  const std::string spec = "seed=" + std::to_string(fault_seed) +
                           ";knn.graph.drop_edge:p=0.02,budget=400"
                           ";spark.task.fail:p=0.3,budget=2"
                           ";spark.acc.lost:p=0.25,budget=2";
  SCOPED_TRACE("fault spec: " + spec);

  Rng rng(404);
  synth::EmbeddingConfig gen_cfg;
  gen_cfg.n = 800;
  gen_cfg.dim = 64;
  gen_cfg.clusters = 4;
  const PointSet ps = synth::embedding_clusters(gen_cfg, rng);

  auto run_knn = [&](const std::string* plan_spec) {
    std::optional<fault::ScopedFaultPlan> chaos;
    if (plan_spec != nullptr) chaos.emplace(*plan_spec);
    minispark::ClusterConfig ccfg;
    ccfg.executors = 3;
    ccfg.straggler.fraction = 0.0;
    ccfg.host_threads = 1;  // one thread: totally ordered fault log
    // 1 + the budgets of spark.task.fail and spark.acc.lost.
    ccfg.max_task_attempts = 5;
    minispark::SparkContext ctx(ccfg);
    SparkDbscanConfig cfg;
    cfg.params = {synth::embedding_suggested_eps(gen_cfg), 5};
    cfg.partitions = 3;
    cfg.backend = DbscanBackend::kKnn;
    cfg.knn.k = 16;
    cfg.knn.threads = 1;  // one thread: totally ordered fault log
    SparkDbscan job(ctx, cfg);
    auto report = job.run(ps);
    ChaosRun out;
    out.clustering = std::move(report.clustering);
    if (chaos.has_value()) {
      out.digest = chaos->plan().log_digest();
      out.hits = chaos->plan().hits();
      out.fires = chaos->plan().fires();
    }
    return out;
  };

  const ChaosRun clean = run_knn(nullptr);
  const ChaosRun faulted = run_knn(&spec);
  const ChaosRun replay = run_knn(&spec);

#ifdef SDB_FAULT_INJECTION
  EXPECT_GT(faulted.hits, 0u);
  EXPECT_GT(faulted.fires, 0u);
#endif

  // 1. Convergence: the faulted graph clusters within the disagreement
  //    bound of the fault-free run (and exactly equals it when the descent
  //    healed every drop).
  EXPECT_GT(rand_index(clean.clustering, faulted.clustering), 0.98);
  EXPECT_GT(adjusted_rand_index(clean.clustering, faulted.clustering), 0.95);

  // 2. Replay: same spec, same seed -> byte-identical fault sequence,
  //    byte-identical labels.
  EXPECT_EQ(faulted.digest, replay.digest);
  EXPECT_EQ(faulted.hits, replay.hits);
  EXPECT_EQ(faulted.fires, replay.fires);
  EXPECT_EQ(faulted.clustering.labels, replay.clustering.labels);
}

INSTANTIATE_TEST_SUITE_P(Grid, ChaosKnnBackend,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// Sanity anchor for the grid: with no plan installed the same pipelines run
// fault-free (hits stay 0), so the grid above is genuinely exercising the
// injection path rather than passing vacuously.
TEST(ChaosEquivalence, NoPlanMeansNoFaults) {
  const PointSet ps = make_shape(Shape::kBlobs, 1000);
  const fs::path scratch =
      fs::temp_directory_path() /
      ("sdb_chaos_noplan_" + std::to_string(::getpid()));
  fs::remove_all(scratch);
  dfs::MiniDfs dfs((scratch / "dfs").string(), 1 << 12);
  dfs.write("/points.txt", synth::to_text(ps));

  minispark::ClusterConfig ccfg;
  ccfg.executors = 3;
  ccfg.straggler.fraction = 0.0;
  ccfg.host_threads = 1;  // the same pipeline as the grid's run_spark
  minispark::SparkContext ctx(ccfg);
  SparkDbscanConfig cfg;
  cfg.params = shape_params(Shape::kBlobs);
  cfg.partitions = 3;
  SparkDbscan dbscan(ctx, cfg);
  (void)dbscan.run_from_dfs(dfs, "/points.txt");
  EXPECT_EQ(dfs.io_retries(), 0u);
  EXPECT_EQ(dfs.slow_reads(), 0u);
  EXPECT_EQ(dfs.failovers(), 0u);
  fs::remove_all(scratch);
}

}  // namespace
}  // namespace sdb::dbscan
