// End-to-end variants of the Spark pipeline: partitioner choices, the
// paper-faithful strategy pair, and pruning on realistic data.
#include <gtest/gtest.h>

#include "core/dbscan_seq.hpp"
#include "core/quality.hpp"
#include "core/spark_dbscan.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/generators.hpp"
#include "synth/presets.hpp"
#include "util/rng.hpp"

namespace sdb::dbscan {
namespace {

minispark::ClusterConfig cluster(u32 executors) {
  minispark::ClusterConfig cfg;
  cfg.executors = executors;
  cfg.straggler.fraction = 0.0;
  return cfg;
}

class SparkDbscanPartitioners : public ::testing::TestWithParam<PartitionerKind> {};

TEST_P(SparkDbscanPartitioners, EquivalentToSequential) {
  Rng rng(3);
  synth::GaussianMixtureConfig gcfg;
  gcfg.n = 900;
  gcfg.dim = 2;
  gcfg.clusters = 5;
  gcfg.sigma = 0.5;
  gcfg.noise_fraction = 0.1;
  gcfg.box_side = 60.0;
  const PointSet ps = synth::gaussian_clusters(gcfg, rng);
  const DbscanParams params{1.0, 5};
  const KdTree tree(ps);
  const auto seq = dbscan_sequential(ps, tree, params);

  minispark::SparkContext ctx(cluster(6));
  SparkDbscanConfig cfg;
  cfg.params = params;
  cfg.partitions = 6;
  cfg.partitioner = GetParam();
  SparkDbscan dbscan(ctx, cfg);
  const auto report = dbscan.run(ps);
  const auto eq = check_equivalence(ps, tree, params, seq.core_points,
                                    seq.clustering, report.clustering);
  EXPECT_TRUE(eq.equivalent)
      << partitioner_name(GetParam()) << ": " << eq.detail;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SparkDbscanPartitioners,
                         ::testing::Values(PartitionerKind::kBlock,
                                           PartitionerKind::kRandom,
                                           PartitionerKind::kGrid,
                                           PartitionerKind::kKdSplit),
                         [](const auto& info) {
                           std::string n = partitioner_name(info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(SparkDbscanVariants, PaperModeProducesSaneClustering) {
  // The paper's own strategies (one seed per partition + single-pass merge)
  // on Table I-style data: not guaranteed sequential-equivalent, but the
  // cluster count must be close and the Rand index high.
  const auto spec = *synth::find_preset("c10k");
  const PointSet ps = synth::generate(spec, 42, 0.3);
  const DbscanParams params{spec.eps, spec.minpts};
  const KdTree tree(ps);
  const auto seq = dbscan_sequential(ps, tree, params);

  minispark::SparkContext ctx(cluster(8));
  SparkDbscanConfig cfg;
  cfg.params = params;
  cfg.partitions = 8;
  cfg.seed_strategy = SeedStrategy::kOnePerPartition;
  cfg.merge_strategy = MergeStrategy::kPaperSinglePass;
  SparkDbscan dbscan(ctx, cfg);
  const auto report = dbscan.run(ps);

  EXPECT_GT(rand_index(seq.clustering, report.clustering), 0.99);
  EXPECT_NEAR(static_cast<double>(report.clustering.num_clusters),
              static_cast<double>(seq.clustering.num_clusters),
              0.3 * static_cast<double>(seq.clustering.num_clusters) + 2.0);
}

TEST(SparkDbscanVariants, PaperRegimeTenDimensional) {
  // The exact paper regime (d=10, eps=25, minpts=5) through the whole
  // pipeline with the sound strategies must match sequential DBSCAN.
  const auto spec = *synth::find_preset("r10k");
  const PointSet ps = synth::generate(spec, 42, 0.25);
  const DbscanParams params{spec.eps, spec.minpts};
  const KdTree tree(ps);
  const auto seq = dbscan_sequential(ps, tree, params);

  minispark::SparkContext ctx(cluster(8));
  SparkDbscanConfig cfg;
  cfg.params = params;
  cfg.partitions = 8;
  SparkDbscan dbscan(ctx, cfg);
  const auto report = dbscan.run(ps);
  const auto eq = check_equivalence(ps, tree, params, seq.core_points,
                                    seq.clustering, report.clustering);
  EXPECT_TRUE(eq.equivalent) << eq.detail;
}

TEST(SparkDbscanVariants, SmallClusterFilterTurnsTinyClustersToNoise) {
  Rng rng(17);
  synth::UniformConfig ucfg;
  ucfg.n = 1200;
  ucfg.dim = 2;
  ucfg.box_side = 30.0;
  const PointSet ps = synth::uniform_points(ucfg, rng);

  auto run = [&](u64 min_size) {
    minispark::SparkContext ctx(cluster(8));
    SparkDbscanConfig cfg;
    cfg.params = {1.0, 4};
    cfg.partitions = 8;
    cfg.min_partial_cluster_size = min_size;
    SparkDbscan dbscan(ctx, cfg);
    return dbscan.run(ps);
  };
  const auto unfiltered = run(0);
  const auto filtered = run(5);
  EXPECT_GT(filtered.merge_stats.filtered_partial_clusters, 0u);
  EXPECT_GE(filtered.clustering.noise_count(),
            unfiltered.clustering.noise_count());
  EXPECT_LE(filtered.clustering.num_clusters,
            unfiltered.clustering.num_clusters);
}

TEST(SparkDbscanVariants, MorePartitionsThanPoints) {
  PointSet ps(2);
  for (int i = 0; i < 6; ++i) {
    const double p[2] = {static_cast<double>(i) * 0.1, 0.0};
    ps.add(p);
  }
  minispark::SparkContext ctx(cluster(16));
  SparkDbscanConfig cfg;
  cfg.params = {0.5, 3};
  cfg.partitions = 16;  // mostly empty partitions
  SparkDbscan dbscan(ctx, cfg);
  const auto report = dbscan.run(ps);
  EXPECT_EQ(report.clustering.num_clusters, 1u);
  EXPECT_EQ(report.clustering.noise_count(), 0u);
}

}  // namespace
}  // namespace sdb::dbscan
