// End-to-end tests of the paper's pipeline on minispark.
#include "core/spark_dbscan.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <optional>
#include <string>
#include <utility>

#include "core/dbscan_seq.hpp"
#include "core/quality.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/generators.hpp"
#include "synth/io.hpp"
#include "util/rng.hpp"

namespace sdb::dbscan {
namespace {

namespace fs = std::filesystem;

minispark::ClusterConfig cluster(u32 executors) {
  minispark::ClusterConfig cfg;
  cfg.executors = executors;
  cfg.straggler.fraction = 0.0;
  return cfg;
}

PointSet blob_data(i64 n, u64 seed) {
  Rng rng(seed);
  synth::GaussianMixtureConfig cfg;
  cfg.n = n;
  cfg.dim = 2;
  cfg.clusters = 4;
  cfg.sigma = 0.5;
  cfg.noise_fraction = 0.05;
  cfg.box_side = 60.0;
  return synth::gaussian_clusters(cfg, rng);
}

TEST(SparkDbscan, MatchesSequentialOnBlobs) {
  const PointSet ps = blob_data(800, 5);
  const KdTree tree(ps);
  const DbscanParams params{1.0, 5};
  const auto seq = dbscan_sequential(ps, tree, params);

  minispark::SparkContext ctx(cluster(4));
  SparkDbscanConfig cfg;
  cfg.params = params;
  cfg.partitions = 4;
  SparkDbscan dbscan(ctx, cfg);
  const auto report = dbscan.run(ps);

  const auto eq = check_equivalence(ps, tree, params, seq.core_points,
                                    seq.clustering, report.clustering);
  EXPECT_TRUE(eq.equivalent) << eq.detail;
}

TEST(SparkDbscan, PhaseTimesPopulated) {
  const PointSet ps = blob_data(500, 7);
  minispark::SparkContext ctx(cluster(4));
  SparkDbscanConfig cfg;
  cfg.params = {1.0, 5};
  cfg.partitions = 4;
  SparkDbscan dbscan(ctx, cfg);
  const auto report = dbscan.run(ps);
  EXPECT_GT(report.sim_read_s, 0.0);
  EXPECT_GT(report.sim_tree_s, 0.0);
  EXPECT_GT(report.sim_broadcast_s, 0.0);
  EXPECT_GT(report.sim_executor_s, 0.0);
  EXPECT_GT(report.sim_merge_s, 0.0);
  EXPECT_GT(report.sim_collect_s, 0.0);
  EXPECT_GT(report.partial_clusters, 0u);
  EXPECT_GT(report.broadcast_bytes, ps.byte_size());
  EXPECT_GT(report.accumulator_bytes, 0u);
  EXPECT_NEAR(report.sim_total_s(),
              report.sim_driver_s() + report.sim_executor_s, 1e-12);
  EXPECT_GT(report.wall_s, 0.0);
}

TEST(SparkDbscan, RunFromDfsMatchesInMemory) {
  const PointSet ps = blob_data(400, 9);
  const std::string root = (fs::temp_directory_path() / "sdb_e2e_dfs").string();
  fs::remove_all(root);
  dfs::MiniDfs dfs(root, 1 << 12);
  dfs.write("/points.txt", synth::to_text(ps));

  minispark::SparkContext ctx(cluster(2));
  SparkDbscanConfig cfg;
  cfg.params = {1.0, 5};
  cfg.partitions = 2;
  SparkDbscan dbscan(ctx, cfg);
  const auto from_dfs = dbscan.run_from_dfs(dfs, "/points.txt");

  minispark::SparkContext ctx2(cluster(2));
  SparkDbscan dbscan2(ctx2, cfg);
  const auto in_memory = dbscan2.run(ps);

  // Same data, same config -> identical labels.
  EXPECT_EQ(from_dfs.clustering.labels, in_memory.clustering.labels);
  fs::remove_all(root);
}

TEST(SparkDbscan, MorePartitionsMorePartialClusters) {
  const PointSet ps = blob_data(1500, 11);
  const DbscanParams params{1.0, 5};
  auto partials = [&](u32 parts) {
    minispark::SparkContext ctx(cluster(parts));
    SparkDbscanConfig cfg;
    cfg.params = params;
    cfg.partitions = parts;
    SparkDbscan dbscan(ctx, cfg);
    return dbscan.run(ps).partial_clusters;
  };
  EXPECT_LT(partials(1), partials(8));
}

TEST(SparkDbscan, ExecutorMakespanShrinksWithCores) {
  const PointSet ps = blob_data(2000, 13);
  const DbscanParams params{1.0, 5};
  auto exec_time = [&](u32 parts) {
    minispark::SparkContext ctx(cluster(parts));
    SparkDbscanConfig cfg;
    cfg.params = params;
    cfg.partitions = parts;
    SparkDbscan dbscan(ctx, cfg);
    return dbscan.run(ps).sim_executor_s;
  };
  const double t1 = exec_time(1);
  const double t8 = exec_time(8);
  EXPECT_GT(t1 / t8, 2.0);
}

TEST(SparkDbscan, PruningBudgetStillFindsBigClusters) {
  const PointSet ps = blob_data(1000, 15);
  minispark::SparkContext ctx(cluster(4));
  SparkDbscanConfig cfg;
  cfg.params = {1.0, 5};
  cfg.partitions = 4;
  cfg.budget.max_neighbors = 32;  // pruning-branches mode
  cfg.min_partial_cluster_size = 3;
  SparkDbscan dbscan(ctx, cfg);
  const auto report = dbscan.run(ps);
  EXPECT_GE(report.clustering.num_clusters, 3u);
  EXPECT_LE(report.clustering.num_clusters, 12u);
}

TEST(SparkDbscan, FaultInjectionDoesNotChangeResult) {
  const PointSet ps = blob_data(600, 17);
  const DbscanParams params{1.0, 5};

  minispark::SparkContext clean_ctx(cluster(4));
  SparkDbscanConfig cfg;
  cfg.params = params;
  cfg.partitions = 8;
  SparkDbscan clean(clean_ctx, cfg);
  const auto clean_report = clean.run(ps);

  minispark::ClusterConfig faulty_cluster = cluster(4);
  faulty_cluster.fault_injection_rate = 0.4;
  faulty_cluster.max_task_attempts = 8;
  minispark::SparkContext faulty_ctx(faulty_cluster);
  SparkDbscan faulty(faulty_ctx, cfg);
  const auto faulty_report = faulty.run(ps);

  EXPECT_EQ(clean_report.clustering.labels, faulty_report.clustering.labels);
  EXPECT_GT(faulty_ctx.last_job().failures_injected, 0u);
}

TEST(SparkDbscan, DeterministicAcrossRuns) {
  const PointSet ps = blob_data(700, 19);
  SparkDbscanConfig cfg;
  cfg.params = {1.0, 5};
  cfg.partitions = 4;
  minispark::SparkContext ctx1(cluster(4));
  minispark::SparkContext ctx2(cluster(4));
  SparkDbscan d1(ctx1, cfg);
  SparkDbscan d2(ctx2, cfg);
  EXPECT_EQ(d1.run(ps).clustering.labels, d2.run(ps).clustering.labels);
}

TEST(SparkDbscan, IdenticalAcrossHostThreads) {
  // The executor tasks share nothing mutable and the merge sorts partial
  // clusters by uid, so no output depends on how many host threads ran
  // them — in particular not on the arrival order of their blobs. Both
  // backends run the same partition sweep, each over its own neighborhood
  // source.
  const PointSet ps = blob_data(3000, 23);
  for (const auto& [backend, codec] :
       {std::pair{DbscanBackend::kExact, Codec::kRaw},
        std::pair{DbscanBackend::kExact, Codec::kCompact},
        std::pair{DbscanBackend::kKnn, Codec::kRaw},
        std::pair{DbscanBackend::kKnn, Codec::kCompact}}) {
    SparkDbscanConfig cfg;
    cfg.params = {1.0, 5};
    cfg.partitions = 12;
    cfg.backend = backend;
    cfg.codec = codec;
    std::optional<SparkDbscanReport> first;
    for (const u32 threads : {1u, 2u, 4u, 0u}) {
      SCOPED_TRACE(std::string(backend_name(backend)) + " " +
                   codec_name(codec) +
                   " host_threads=" + std::to_string(threads));
      minispark::ClusterConfig ccfg = cluster(4);
      ccfg.host_threads = threads;
      minispark::SparkContext ctx(ccfg);
      SparkDbscan dbscan(ctx, cfg);
      SparkDbscanReport report = dbscan.run(ps);
      if (!first) {
        EXPECT_GE(report.clustering.num_clusters, 3u);
        first = std::move(report);
        continue;
      }
      EXPECT_EQ(report.clustering.labels, first->clustering.labels);
      EXPECT_EQ(report.clustering.num_clusters,
                first->clustering.num_clusters);
      EXPECT_EQ(report.sim_read_s, first->sim_read_s);
      EXPECT_EQ(report.sim_tree_s, first->sim_tree_s);
      EXPECT_EQ(report.sim_broadcast_s, first->sim_broadcast_s);
      EXPECT_EQ(report.sim_executor_s, first->sim_executor_s);
      EXPECT_EQ(report.sim_executor_total_s, first->sim_executor_total_s);
      EXPECT_EQ(report.sim_collect_s, first->sim_collect_s);
      EXPECT_EQ(report.sim_merge_s, first->sim_merge_s);
      const MergeStats& a = report.merge_stats;
      const MergeStats& b = first->merge_stats;
      EXPECT_EQ(a.partial_clusters, b.partial_clusters);
      EXPECT_EQ(a.filtered_partial_clusters, b.filtered_partial_clusters);
      EXPECT_EQ(a.max_partial_cluster_size, b.max_partial_cluster_size);
      EXPECT_EQ(a.seeds_examined, b.seeds_examined);
      EXPECT_EQ(a.merges, b.merges);
      EXPECT_EQ(a.border_claims, b.border_claims);
      EXPECT_EQ(report.partial_clusters, first->partial_clusters);
      EXPECT_EQ(report.accumulator_bytes, first->accumulator_bytes);
      EXPECT_EQ(report.knn_eps_edges, first->knn_eps_edges);
      EXPECT_EQ(report.knn_core_points, first->knn_core_points);
    }
  }
}

TEST(SparkDbscan, BudgetSeparatesJobFingerprints) {
  // A query budget drops neighbors, so it changes partition results: a
  // checkpoint written under one budget must never resume into a run under
  // another budget, or into an exact run.
  const fs::path dir = fs::temp_directory_path() /
                       ("sdb_budget_fp_" + std::to_string(::getpid()));
  const PointSet ps = blob_data(2000, 31);
  auto run = [&](QueryBudget budget) {
    fs::remove_all(dir);
    minispark::SparkContext ctx(cluster(4));
    SparkDbscanConfig cfg;
    cfg.params = {1.0, 5};
    cfg.partitions = 4;
    cfg.budget = budget;
    cfg.checkpoint_dir = dir.string();
    SparkDbscan dbscan(ctx, cfg);
    return dbscan.run(ps);
  };
  const SparkDbscanReport exact = run({});
  const SparkDbscanReport capped = run({.max_neighbors = 4});
  ASSERT_NE(exact.clustering.num_clusters, capped.clustering.num_clusters);
  EXPECT_NE(exact.job_fingerprint, capped.job_fingerprint);
  EXPECT_NE(capped.job_fingerprint, run({.max_neighbors = 5}).job_fingerprint);
  EXPECT_NE(capped.job_fingerprint,
            run({.max_neighbors = 4, .max_nodes = 64}).job_fingerprint);
  fs::remove_all(dir);
}

TEST(SparkDbscan, NodeCapFingerprintsFoldTheKdTreeFanout) {
  // A max_nodes cap counts the kd-tree's nodes, so which hits a capped job
  // keeps depends on the node layout: a checkpoint written under one layout
  // must not resume into another. Exact and neighbor-capped jobs report the
  // same hits on every layout, so their fingerprints keep the values they
  // had under the binary layout; a node-capped one must move off its value.
  const fs::path dir = fs::temp_directory_path() /
                       ("sdb_fanout_fp_" + std::to_string(::getpid()));
  const PointSet ps = blob_data(600, 37);
  auto fingerprint = [&](QueryBudget budget) {
    fs::remove_all(dir);
    minispark::SparkContext ctx(cluster(2));
    SparkDbscanConfig cfg;
    cfg.params = {1.0, 5};
    cfg.partitions = 2;
    cfg.budget = budget;
    cfg.checkpoint_dir = dir.string();
    SparkDbscan dbscan(ctx, cfg);
    return dbscan.run(ps).job_fingerprint;
  };
  // Recorded under the binary layout.
  constexpr u64 kExact = 8654376068423609953ull;
  constexpr u64 kNeighborCapped = 14156292801718581282ull;
  constexpr u64 kBinaryNodeCapped = 11581811627787627618ull;
  const u64 exact = fingerprint({});
  const u64 neighbor_capped = fingerprint({.max_neighbors = 4});
  const u64 node_capped = fingerprint({.max_nodes = 64});
  EXPECT_EQ(exact, kExact);
  EXPECT_EQ(neighbor_capped, kNeighborCapped);
  EXPECT_NE(node_capped, kBinaryNodeCapped);
  fs::remove_all(dir);
}

TEST(SparkDbscan, KnnFingerprintsFoldTheDescentStart) {
  // Which rows an NN-descent build starts from changes the graph it
  // converges to, so partitions checkpointed from a graph with one start
  // must not resume into a job whose graph has another. The exact backend
  // builds no graph and keeps its fingerprint; the kNN backend's must move
  // off the value it had when the descent started from random rows.
  const fs::path dir = fs::temp_directory_path() /
                       ("sdb_start_fp_" + std::to_string(::getpid()));
  const PointSet ps = blob_data(600, 37);
  auto fingerprint = [&](DbscanBackend backend) {
    fs::remove_all(dir);
    minispark::SparkContext ctx(cluster(2));
    SparkDbscanConfig cfg;
    cfg.params = {1.0, 5};
    cfg.partitions = 2;
    cfg.backend = backend;
    cfg.checkpoint_dir = dir.string();
    SparkDbscan dbscan(ctx, cfg);
    return dbscan.run(ps).job_fingerprint;
  };
  // Recorded when the descent started from seeded random rows.
  constexpr u64 kExact = 8654376068423609953ull;
  constexpr u64 kRandomStartKnn = 7377778652359950393ull;
  EXPECT_EQ(fingerprint(DbscanBackend::kExact), kExact);
  EXPECT_NE(fingerprint(DbscanBackend::kKnn), kRandomStartKnn);
  // Recorded with the forest start. The salt folds the descent's join
  // sample cap and stopping fraction by value and type, so this holds while
  // they keep theirs.
  constexpr u64 kForestStartKnn = 11154479637995868620ull;
  EXPECT_EQ(fingerprint(DbscanBackend::kKnn), kForestStartKnn);
  fs::remove_all(dir);
}

TEST(SparkDbscan, ZeroPartitionsMeansOnePerCore) {
  // partitions = 0 asks for one partition per simulated core: 4 executors
  // x 2 cores run 8 tasks, and the job is the one partitions = 8 names.
  const fs::path dir = fs::temp_directory_path() /
                       ("sdb_default_parts_" + std::to_string(::getpid()));
  const PointSet ps = blob_data(600, 37);
  auto run = [&](u32 partitions) {
    fs::remove_all(dir);
    minispark::ClusterConfig ccfg = cluster(4);
    ccfg.cores_per_executor = 2;
    minispark::SparkContext ctx(ccfg);
    SparkDbscanConfig cfg;
    cfg.params = {1.0, 5};
    cfg.partitions = partitions;
    cfg.checkpoint_dir = dir.string();
    SparkDbscan dbscan(ctx, cfg);
    SparkDbscanReport report = dbscan.run(ps);
    EXPECT_EQ(ctx.last_job().num_tasks, 8u);
    EXPECT_EQ(report.executed_partitions, 8u);
    return report;
  };
  const SparkDbscanReport by_default = run(0);
  const SparkDbscanReport eight = run(8);
  EXPECT_EQ(by_default.job_fingerprint, eight.job_fingerprint);
  EXPECT_EQ(by_default.clustering.labels, eight.clustering.labels);
  fs::remove_all(dir);
}

TEST(SparkDbscan, WallPhasesFitInsideWallTime) {
  const fs::path dir = fs::temp_directory_path() /
                       ("sdb_spark_wall_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const PointSet ps = blob_data(1500, 29);
  dfs::MiniDfs dfs(dir.string());
  dfs.write("/points.txt", synth::to_text(ps));
  minispark::SparkContext ctx(cluster(4));
  SparkDbscanConfig cfg;
  cfg.params = {1.0, 5};
  cfg.partitions = 4;
  SparkDbscan dbscan(ctx, cfg);
  const SparkDbscanReport report = dbscan.run_from_dfs(dfs, "/points.txt");
  EXPECT_GT(report.wall_read_s, 0.0);
  EXPECT_GT(report.wall_index_s, 0.0);
  EXPECT_GT(report.wall_executor_s, 0.0);
  EXPECT_GT(report.wall_merge_s, 0.0);
  EXPECT_LE(report.wall_read_s + report.wall_index_s + report.wall_executor_s +
                report.wall_merge_s,
            report.wall_s);
  // One task per partition, each inside the executor phase.
  ASSERT_EQ(report.wall_task_s.size(), 4u);
  for (const double task_s : report.wall_task_s) {
    EXPECT_GT(task_s, 0.0);
    EXPECT_LE(task_s, report.wall_executor_s);
  }
  fs::remove_all(dir);
}

TEST(PartialClusterSerialization, RoundTrip) {
  LocalClusterResult r;
  r.partition = 3;
  PartialCluster pc;
  pc.uid = PartialCluster::make_uid(3, 7);
  pc.partition = 3;
  pc.members = {10, 11, 12};
  pc.seeds = {99, 1000};
  r.clusters.push_back(pc);
  r.core_points = {10, 11};
  r.noise = {55};
  const LocalClusterResult back = local_result_from_bytes(to_bytes(r));
  EXPECT_EQ(back.partition, 3);
  ASSERT_EQ(back.clusters.size(), 1u);
  EXPECT_EQ(back.clusters[0].uid, pc.uid);
  EXPECT_EQ(back.clusters[0].members, pc.members);
  EXPECT_EQ(back.clusters[0].seeds, pc.seeds);
  EXPECT_EQ(back.core_points, r.core_points);
  EXPECT_EQ(back.noise, r.noise);
}

TEST(PartialClusterSerialization, ByteSizeTracksContents) {
  PartialCluster small;
  small.members = {1};
  PartialCluster big;
  big.members.assign(1000, 7);
  EXPECT_LT(small.byte_size(), big.byte_size());
}

}  // namespace
}  // namespace sdb::dbscan
