// KNN-DBSCAN backend contract (knn/knn_backend.hpp + the spark pipeline
// backend switch):
//   * KnnEpsGraph core/edge semantics against hand-checkable fixtures;
//   * the disagreement-bound harness: well-separated fixtures with an exact
//     graph score ZERO disagreement vs exact DBSCAN, embedding workloads
//     with the descent build stay within an asserted (ARI, fraction) bound;
//   * the partitioned engine (dbscan::SparkDbscanConfig{backend = kKnn}) agrees
//     with the single-node knn_dbscan reference end-to-end on d=64;
//   * serving snapshots (ClusterModel) built from the backend's output;
//   * job-identity isolation: knn runs can never alias exact-backend
//     checkpoints (backend-salted fingerprints).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/dbscan_seq.hpp"
#include "core/job_identity.hpp"
#include "core/quality.hpp"
#include "core/spark_dbscan.hpp"
#include "knn/disagreement.hpp"
#include "knn/knn_backend.hpp"
#include "serve/cluster_model.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/generators.hpp"
#include "util/rng.hpp"

namespace sdb::knn {
namespace {

PointSet embedding_fixture(i64 n, int dim, u64 seed,
                           synth::EmbeddingConfig* out_cfg = nullptr) {
  Rng rng(seed);
  synth::EmbeddingConfig cfg;
  cfg.n = n;
  cfg.dim = dim;
  cfg.clusters = 5;
  if (out_cfg != nullptr) *out_cfg = cfg;
  return synth::embedding_clusters(cfg, rng);
}

KnnGraphConfig exact_graph_cfg(u32 k) {
  KnnGraphConfig cfg;
  cfg.k = k;
  cfg.build = KnnGraphConfig::Build::kExact;
  return cfg;
}

// ---------------------------------------------------------------------------
// KnnEpsGraph semantics on a hand-checkable line fixture.
// ---------------------------------------------------------------------------

TEST(KnnEpsGraph, CoreBorderNoiseOnALine) {
  // Points on a line at x = 0, 1, 2, 3, 50 with eps = 1.2, minpts = 3:
  // 1 sees {0, 2} and 2 sees {1, 3}, so those two are core (1 + 2 >= 3);
  // 0 and 3 each see one core (border); 4 is noise.
  PointSet ps(2);
  ps.add(std::vector<double>{0.0, 0.0});
  ps.add(std::vector<double>{1.0, 0.0});
  ps.add(std::vector<double>{2.0, 0.0});
  ps.add(std::vector<double>{3.0, 0.0});
  ps.add(std::vector<double>{50.0, 0.0});

  const dbscan::DbscanParams params{1.2, 3};
  const KnnGraph g = build_knn_graph(ps, exact_graph_cfg(3));
  const KnnEpsGraph eps = KnnEpsGraph::build(g, params);

  ASSERT_EQ(eps.size(), 5u);
  EXPECT_FALSE(eps.is_core(0));  // one in-eps neighbor (1): 1+1 < 3
  EXPECT_TRUE(eps.is_core(1));
  EXPECT_TRUE(eps.is_core(2));
  EXPECT_FALSE(eps.is_core(3));
  EXPECT_FALSE(eps.is_core(4));
  EXPECT_EQ(eps.num_core(), 2u);

  const dbscan::Clustering c = knn_dbscan(eps);
  EXPECT_EQ(c.num_clusters, 1);
  EXPECT_EQ(c.labels[0], 0);  // border of the only cluster
  EXPECT_EQ(c.labels[1], 0);
  EXPECT_EQ(c.labels[2], 0);
  EXPECT_EQ(c.labels[3], 0);  // border via edge to core 2
  EXPECT_EQ(c.labels[4], kNoise);
}

TEST(KnnEpsGraph, RequiresKAtLeastMinptsMinusOne) {
  PointSet ps(2);
  for (int i = 0; i < 8; ++i) {
    ps.add(std::vector<double>{static_cast<double>(i), 0.0});
  }
  const KnnGraph g = build_knn_graph(ps, exact_graph_cfg(3));
  EXPECT_DEATH((void)KnnEpsGraph::build(g, dbscan::DbscanParams{1.5, 5}),
               "minpts");
}

TEST(KnnEpsGraph, MutualEdgesAreSymmetricAndFlagsConsistent) {
  const PointSet ps = embedding_fixture(400, 64, 17);
  KnnGraphConfig cfg;  // descent build: rows are genuinely asymmetric
  cfg.k = 8;
  const KnnGraph g = build_knn_graph(ps, cfg);
  const dbscan::DbscanParams params{
      synth::embedding_suggested_eps(synth::EmbeddingConfig{
          .n = 400, .dim = 64, .clusters = 5}),
      5};
  const KnnEpsGraph eps = KnnEpsGraph::build(g, params);

  for (PointId i = 0; i < static_cast<PointId>(eps.size()); ++i) {
    const auto nbrs = eps.neighbors(i);
    const auto flags = eps.edge_flags(i);
    ASSERT_EQ(nbrs.size(), flags.size());
    for (size_t s = 0; s < nbrs.size(); ++s) {
      const PointId j = nbrs[s];
      ASSERT_NE(j, i) << "self edge";
      if (s > 0) {
        EXPECT_LT(nbrs[s - 1], j) << "row not ascending by id";
      }
      // Find i in j's row; the flag must be the mirror image.
      const auto jn = eps.neighbors(j);
      const auto jf = eps.edge_flags(j);
      bool found = false;
      for (size_t t = 0; t < jn.size(); ++t) {
        if (jn[t] != i) continue;
        found = true;
        const std::uint8_t mirrored = static_cast<std::uint8_t>(
            ((flags[s] & KnnEpsGraph::kFwd) != 0 ? KnnEpsGraph::kRev : 0) |
            ((flags[s] & KnnEpsGraph::kRev) != 0 ? KnnEpsGraph::kFwd : 0));
        EXPECT_EQ(jf[t], mirrored) << "i=" << i << " j=" << j;
        break;
      }
      EXPECT_TRUE(found) << "edge " << i << "->" << j << " not mirrored";
    }
  }
}

TEST(KnnEpsGraph, DigestGoldenFromExactGraph) {
  // An exact graph's rows depend on nothing but the points, so the
  // eps-graph derived from them is a fixed CSR: any rewrite of the
  // derivation must reproduce it byte for byte (digest recorded from the
  // per-row vector build).
  synth::EmbeddingConfig gen_cfg;
  const PointSet ps = embedding_fixture(2000, 64, 23, &gen_cfg);
  const dbscan::DbscanParams params{synth::embedding_suggested_eps(gen_cfg),
                                    5};
  const KnnEpsGraph eps =
      KnnEpsGraph::build(build_knn_graph(ps, exact_graph_cfg(16)), params);
  EXPECT_EQ(eps.digest(), 1313776661338552976ull);
  EXPECT_EQ(eps.num_edges(), 45260u);
  EXPECT_EQ(eps.num_core(), 1960u);
}

// ---------------------------------------------------------------------------
// Disagreement harness.
// ---------------------------------------------------------------------------

TEST(Disagreement, IdenticalClusteringsScoreZero) {
  dbscan::Clustering c;
  c.labels = {0, 0, 1, 1, kNoise};
  c.num_clusters = 2;
  const DisagreementReport r = measure_disagreement(c, c);
  EXPECT_EQ(r.points, 5u);
  EXPECT_EQ(r.ari, 1.0);
  EXPECT_EQ(r.label_disagreements, 0u);
  EXPECT_EQ(r.noise_mismatches, 0u);
  EXPECT_EQ(r.disagreement_frac(), 0.0);
  EXPECT_TRUE(r.within(1.0, 0.0));
}

TEST(Disagreement, CountsLabelAndNoiseMismatches) {
  dbscan::Clustering exact, approx;
  exact.labels = {0, 0, 0, 1, 1, kNoise};
  exact.num_clusters = 2;
  // One point defects from cluster 0 to cluster 1 (renumbered), and the
  // noise point got clustered.
  approx.labels = {5, 5, 7, 7, 7, 7};
  approx.num_clusters = 2;
  const DisagreementReport r = measure_disagreement(exact, approx);
  EXPECT_EQ(r.points, 6u);
  EXPECT_EQ(r.noise_mismatches, 1u);   // exact noise, approx clustered
  EXPECT_EQ(r.label_disagreements, 1u);  // point 2 outside the matching
  EXPECT_LT(r.ari, 1.0);
  EXPECT_FALSE(r.within(0.999, 0.0));
}

TEST(Disagreement, ZeroOnWellSeparatedGaussiansWithExactGraph) {
  // The parity fixture the ISSUE names: well-separated gaussian clusters,
  // exact kNN rows, eps covering intra-cluster distances with room to
  // spare. Every in-eps fact exact DBSCAN uses is visible in the graph
  // (k >= largest eps-neighborhood), so the backend must reproduce exact
  // DBSCAN point-for-point: ARI exactly 1, zero mismatches of any kind.
  Rng rng(2025);
  synth::GaussianMixtureConfig cfg;
  cfg.n = 600;
  cfg.dim = 8;
  cfg.clusters = 5;
  cfg.sigma = 0.5;
  cfg.center_separation_sigmas = 40.0;
  cfg.noise_fraction = 0.04;
  cfg.box_side = 400.0;
  const PointSet ps = synth::gaussian_clusters(cfg, rng);

  // eps ~ 4 sigma sqrt(2d): generous enough that each cluster is one dense
  // eps-connected blob, far below the 20-sigma center separation.
  const dbscan::DbscanParams params{
      4.0 * cfg.sigma * std::sqrt(2.0 * cfg.dim), 5};

  // k = 160 >= any eps-neighborhood (clusters hold ~120 points each), so
  // the exact kNN graph contains every in-eps edge.
  const DisagreementReport r =
      knn_vs_exact(ps, params, exact_graph_cfg(160));
  EXPECT_EQ(r.ari, 1.0);
  EXPECT_EQ(r.label_disagreements, 0u);
  EXPECT_EQ(r.noise_mismatches, 0u);
  EXPECT_EQ(r.core_mismatches, 0u);
  EXPECT_TRUE(r.within(1.0, 0.0));
}

TEST(Disagreement, BoundedOnEmbeddingWorkloadWithDescentGraph) {
  // The realistic cell: d=64 embedding clusters, approximate descent
  // graph, modest k. The backend may disagree with exact DBSCAN — but only
  // within the asserted bound (this is the bound bench_knn reports
  // against).
  synth::EmbeddingConfig cfg;
  const PointSet ps = embedding_fixture(1200, 64, 99, &cfg);
  const dbscan::DbscanParams params{synth::embedding_suggested_eps(cfg), 5};

  KnnGraphConfig knn_cfg;
  knn_cfg.k = 16;
  knn_cfg.build = KnnGraphConfig::Build::kDescent;
  const DisagreementReport r = knn_vs_exact(ps, params, knn_cfg);
  EXPECT_EQ(r.points, ps.size());
  EXPECT_TRUE(r.within(0.95, 0.02))
      << "ari=" << r.ari << " frac=" << r.disagreement_frac()
      << " labels=" << r.label_disagreements
      << " noise=" << r.noise_mismatches;
}

// ---------------------------------------------------------------------------
// Partitioned engine: spark pipeline with backend = kKnn.
// ---------------------------------------------------------------------------

dbscan::SparkDbscanConfig knn_spark_config(const dbscan::DbscanParams& params,
                                   u32 k, int partitions = 4) {
  dbscan::SparkDbscanConfig cfg;
  cfg.params = params;
  cfg.partitions = partitions;
  cfg.backend = dbscan::DbscanBackend::kKnn;
  cfg.knn.k = k;
  return cfg;
}

TEST(SparkKnnBackend, MatchesSingleNodeReferenceOnD64) {
  synth::EmbeddingConfig gen_cfg;
  const PointSet ps = embedding_fixture(1500, 64, 42, &gen_cfg);
  const dbscan::DbscanParams params{synth::embedding_suggested_eps(gen_cfg),
                                    5};

  // Single-node reference over the same graph config.
  KnnGraphConfig knn_cfg;
  knn_cfg.k = 16;
  const KnnGraph g = build_knn_graph(ps, knn_cfg);
  const KnnEpsGraph eps = KnnEpsGraph::build(g, params);
  const dbscan::Clustering reference = knn_dbscan(eps);

  minispark::ClusterConfig ccfg;
  ccfg.executors = 3;
  ccfg.straggler.fraction = 0.0;
  minispark::SparkContext ctx(ccfg);
  dbscan::SparkDbscanConfig cfg = knn_spark_config(params, knn_cfg.k);
  dbscan::SparkDbscan job(ctx, cfg);
  const dbscan::SparkDbscanReport report = job.run(ps);

  // Same graph, same core mask, same expansion rule -> the partitioned
  // result must be cluster-isomorphic to the reference: identical noise
  // set, ARI exactly 1 after matching.
  const DisagreementReport gap =
      measure_disagreement(reference, report.clustering);
  EXPECT_EQ(gap.ari, 1.0);
  EXPECT_EQ(gap.label_disagreements, 0u);
  EXPECT_EQ(gap.noise_mismatches, 0u);
  EXPECT_EQ(report.clustering.num_clusters, reference.num_clusters);

  // The report carries the graph-build telemetry.
  EXPECT_GT(report.knn_graph_rounds, 0u);
  EXPECT_GT(report.knn_graph_evals, 0u);
  EXPECT_GT(report.knn_eps_edges, 0u);
  EXPECT_GT(report.knn_core_points, 0u);
  EXPECT_EQ(report.knn_core_points, eps.num_core());
}

TEST(SparkKnnBackend, DeterministicAcrossRunsAndPartitioners) {
  synth::EmbeddingConfig gen_cfg;
  const PointSet ps = embedding_fixture(900, 64, 77, &gen_cfg);
  const dbscan::DbscanParams params{synth::embedding_suggested_eps(gen_cfg),
                                    5};

  auto run_labels = [&](dbscan::PartitionerKind partitioner) {
    minispark::ClusterConfig ccfg;
    ccfg.executors = 3;
    ccfg.straggler.fraction = 0.0;
    minispark::SparkContext ctx(ccfg);
    dbscan::SparkDbscanConfig cfg = knn_spark_config(params, 16);
    cfg.partitioner = partitioner;
    dbscan::SparkDbscan job(ctx, cfg);
    return job.run(ps).clustering;
  };

  const auto block1 = run_labels(dbscan::PartitionerKind::kBlock);
  const auto block2 = run_labels(dbscan::PartitionerKind::kBlock);
  EXPECT_EQ(block1.labels, block2.labels);

  // Partitioning must not change the clustering (the graph and core mask
  // are global; only the sweep is partitioned).
  const auto random = run_labels(dbscan::PartitionerKind::kRandom);
  const DisagreementReport gap = measure_disagreement(block1, random);
  EXPECT_EQ(gap.ari, 1.0);
  EXPECT_EQ(gap.label_disagreements, 0u);
  EXPECT_EQ(gap.noise_mismatches, 0u);
}

TEST(SparkKnnBackend, ExactBackendIsUnaffectedByKnnConfig) {
  // The backend switch must leave the exact path byte-identical: same
  // labels whether cfg.knn is default or not, as long as backend = kExact.
  Rng rng(5);
  synth::GaussianMixtureConfig gcfg;
  gcfg.n = 400;
  gcfg.dim = 2;
  gcfg.clusters = 4;
  gcfg.sigma = 0.4;
  gcfg.box_side = 30.0;
  const PointSet ps = synth::gaussian_clusters(gcfg, rng);
  const dbscan::DbscanParams params{0.8, 5};

  auto run_exact = [&](u32 knn_k) {
    minispark::ClusterConfig ccfg;
    ccfg.executors = 2;
    ccfg.straggler.fraction = 0.0;
    minispark::SparkContext ctx(ccfg);
    dbscan::SparkDbscanConfig cfg;
    cfg.params = params;
    cfg.partitions = 3;
    cfg.knn.k = knn_k;  // must be inert under kExact
    dbscan::SparkDbscan job(ctx, cfg);
    return job.run(ps).clustering.labels;
  };
  EXPECT_EQ(run_exact(16), run_exact(64));
}

// ---------------------------------------------------------------------------
// Serving snapshot from the KNN backend's output.
// ---------------------------------------------------------------------------

TEST(KnnServing, ClusterModelSnapshotClassifiesCorePointsHome) {
  synth::EmbeddingConfig gen_cfg;
  const PointSet ps = embedding_fixture(800, 64, 21, &gen_cfg);
  const dbscan::DbscanParams params{synth::embedding_suggested_eps(gen_cfg),
                                    5};
  const KnnGraph g = build_knn_graph(ps, exact_graph_cfg(16));
  const KnnEpsGraph eps = KnnEpsGraph::build(g, params);
  const dbscan::Clustering clustering = knn_dbscan(eps);

  const auto model =
      serve::ClusterModel::build(ps, clustering, eps.core_mask(), params);
  ASSERT_NE(model, nullptr);

  const auto summary = model->summary();
  EXPECT_EQ(summary.total_points, ps.size());
  EXPECT_EQ(summary.num_clusters,
            static_cast<u64>(clustering.num_clusters));
  EXPECT_EQ(summary.core_points, eps.num_core());
  EXPECT_EQ(summary.noise_points, clustering.noise_count());
  EXPECT_EQ(summary.dim, 64);

  // Every core point classifies into its own cluster (distance 0 to a
  // retained core), and label_of serves the snapshot labels verbatim.
  u64 checked = 0;
  for (PointId i = 0; i < static_cast<PointId>(ps.size()) && checked < 200;
       ++i) {
    if (!eps.is_core(i)) continue;
    ++checked;
    EXPECT_EQ(model->classify(ps[i]), clustering.labels[i]) << "i=" << i;
    EXPECT_EQ(model->label_of(i), clustering.labels[i]) << "i=" << i;
  }
  EXPECT_GT(checked, 0u);
}

// ---------------------------------------------------------------------------
// Job identity: knn runs never alias exact-backend checkpoints.
// ---------------------------------------------------------------------------

TEST(KnnJobIdentity, BackendSaltSeparatesFingerprints) {
  const PointSet ps = embedding_fixture(200, 16, 3);
  const u64 dataset = dbscan::dataset_digest(ps);
  const dbscan::DbscanParams params{1.0, 5};
  auto fp = [&](u64 salt) {
    return dbscan::job_fingerprint(
        "spark", dataset, params, dbscan::PartitionerKind::kBlock, 4, 42,
        dbscan::SeedStrategy::kAllForeign,
        dbscan::MergeStrategy::kUnionFind, dbscan::Codec::kCompact, salt);
  };
  EXPECT_NE(fp(0), fp(0x1234abcdULL))
      << "knn-backend runs must not reuse exact-backend checkpoints";
  // Distinct knn configs hash to distinct salts upstream; distinct salts
  // must keep fingerprints distinct here.
  EXPECT_NE(fp(0x1234abcdULL), fp(0x1234abceULL));

  // Salt 0 is the documented no-op: the same fingerprint as the call
  // without a salt.
  const u64 unsalted = dbscan::job_fingerprint(
      "spark", dataset, params, dbscan::PartitionerKind::kBlock, 4, 42,
      dbscan::SeedStrategy::kAllForeign, dbscan::MergeStrategy::kUnionFind,
      dbscan::Codec::kCompact);
  EXPECT_EQ(fp(0), unsalted);
}

}  // namespace
}  // namespace sdb::knn
