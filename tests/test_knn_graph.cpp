// kNN graph builder contract (knn/knn_graph.hpp): exact rows against the
// brute-force oracle, the random-projection forest's start rows (full from
// the leaves, on non-finite and duplicate points too), NN-descent recall
// against exact rows, bit-determinism across thread counts, and
// self-healing under the knn.graph.drop_edge chaos site.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "geom/distance.hpp"
#include "knn/knn_graph.hpp"
#include "synth/generators.hpp"
#include "util/counters.hpp"
#include "util/rng.hpp"

namespace sdb::knn {
namespace {

PointSet embedding_fixture(i64 n, int dim, u64 seed, int clusters = 5) {
  Rng rng(seed);
  synth::EmbeddingConfig cfg;
  cfg.n = n;
  cfg.dim = dim;
  cfg.intrinsic_dim = std::min(cfg.intrinsic_dim, std::max(1, dim / 2));
  cfg.clusters = clusters;
  return synth::embedding_clusters(cfg, rng);
}

/// Expected row of point i: exact kNN under (d2, id), self excluded.
std::vector<std::pair<double, PointId>> oracle_row(const PointSet& ps,
                                                   PointId i, u32 k) {
  std::vector<std::pair<double, PointId>> all;
  for (PointId j = 0; j < static_cast<PointId>(ps.size()); ++j) {
    if (j == i) continue;
    all.emplace_back(squared_distance_uncounted(ps[i], ps[j]), j);
  }
  std::sort(all.begin(), all.end());
  if (all.size() > k) all.resize(k);
  return all;
}

void expect_row_equals_oracle(const PointSet& ps, const KnnGraph& g,
                              PointId i) {
  const auto want = oracle_row(ps, i, g.k());
  const auto ids = g.row_ids(i);
  const auto d2s = g.row_d2(i);
  ASSERT_EQ(g.row_size(i), want.size()) << "i=" << i;
  for (size_t s = 0; s < want.size(); ++s) {
    EXPECT_EQ(ids[s], want[s].second) << "i=" << i << " slot=" << s;
    EXPECT_EQ(d2s[s], want[s].first) << "i=" << i << " slot=" << s;
  }
  for (size_t s = want.size(); s < g.k(); ++s) {
    EXPECT_EQ(ids[s], kNoNeighbor) << "i=" << i << " slot=" << s;
  }
}

TEST(KnnGraphExact, RowsMatchBruteOracleLowAndHighDim) {
  for (const int dim : {3, 64, 128}) {
    const PointSet ps = embedding_fixture(300, dim, 100 + dim);
    KnnGraphConfig cfg;
    cfg.k = 12;
    cfg.build = KnnGraphConfig::Build::kExact;
    KnnGraphBuildStats stats;
    const KnnGraph g = build_knn_graph(ps, cfg, &stats);
    ASSERT_EQ(g.size(), ps.size()) << "dim=" << dim;
    ASSERT_EQ(g.k(), cfg.k) << "dim=" << dim;
    EXPECT_EQ(stats.rounds, 0u);
    EXPECT_EQ(stats.distance_evals, ps.size() * (ps.size() - 1));
    for (PointId i = 0; i < static_cast<PointId>(ps.size()); ++i) {
      expect_row_equals_oracle(ps, g, i);
    }
  }
}

TEST(KnnGraphExact, ChargesDistanceEvalsToCallerSink) {
  const PointSet ps = embedding_fixture(200, 16, 9);
  KnnGraphConfig cfg;
  cfg.k = 8;
  cfg.build = KnnGraphConfig::Build::kExact;
  WorkCounters wc;
  {
    ScopedCounters scope(&wc);
    (void)build_knn_graph(ps, cfg);
  }
  EXPECT_EQ(wc.distance_evals, ps.size() * (ps.size() - 1));
}

TEST(KnnGraphExact, ShortRowsWhenKExceedsN) {
  PointSet ps(4);
  ps.add(std::vector<double>{0, 0, 0, 0});
  ps.add(std::vector<double>{1, 0, 0, 0});
  ps.add(std::vector<double>{0, 2, 0, 0});
  KnnGraphConfig cfg;
  cfg.k = 8;
  cfg.build = KnnGraphConfig::Build::kExact;
  const KnnGraph g = build_knn_graph(ps, cfg);
  for (PointId i = 0; i < 3; ++i) {
    EXPECT_EQ(g.row_size(i), 2u) << "i=" << i;
    expect_row_equals_oracle(ps, g, i);
    EXPECT_TRUE(std::isinf(g.kth_distance2(i))) << "short row -> +inf";
  }
  EXPECT_EQ(g.row_ids(0)[0], 1);  // d2=1 beats d2=4
  EXPECT_EQ(g.row_d2(0)[0], 1.0);
}

TEST(KnnGraphExact, TieAtKthSlotBrokenByPointId) {
  // Point 0 at origin; four partners at identical d2=4 along different
  // axes. With k=2 the row must keep the two LOWEST ids of the tie group.
  PointSet ps(4);
  ps.add(std::vector<double>{0, 0, 0, 0});
  ps.add(std::vector<double>{2, 0, 0, 0});
  ps.add(std::vector<double>{0, 2, 0, 0});
  ps.add(std::vector<double>{0, 0, 2, 0});
  ps.add(std::vector<double>{0, 0, 0, 2});
  KnnGraphConfig cfg;
  cfg.k = 2;
  cfg.build = KnnGraphConfig::Build::kExact;
  const KnnGraph g = build_knn_graph(ps, cfg);
  const auto ids = g.row_ids(0);
  EXPECT_EQ(ids[0], 1);
  EXPECT_EQ(ids[1], 2);
  EXPECT_EQ(g.kth_distance2(0), 4.0);
}

TEST(KnnGraphDescent, HighRecallOnEmbeddingWorkload) {
  for (const int dim : {64, 128}) {
    const PointSet ps = embedding_fixture(1500, dim, 7 + dim);
    KnnGraphConfig exact_cfg;
    exact_cfg.k = 16;
    exact_cfg.build = KnnGraphConfig::Build::kExact;
    const KnnGraph exact = build_knn_graph(ps, exact_cfg);

    KnnGraphConfig cfg = exact_cfg;
    cfg.build = KnnGraphConfig::Build::kDescent;
    KnnGraphBuildStats stats;
    const KnnGraph approx = build_knn_graph(ps, cfg, &stats);

    const double recall = graph_recall(exact, approx);
    EXPECT_GE(recall, 0.90) << "dim=" << dim << " rounds=" << stats.rounds;
    EXPECT_GT(stats.rounds, 0u) << "dim=" << dim;
    EXPECT_GT(stats.updates, 0u) << "dim=" << dim;
    // Descent must cost strictly fewer pair evaluations than the O(n^2)
    // exact scan even at this small n; the asymptotic gap (the point of
    // the build — rounds scale with n*k^2, not n^2) is measured by
    // bench_knn at 10k points, where the ratio is several-fold.
    EXPECT_LT(stats.distance_evals, ps.size() * (ps.size() - 1))
        << "dim=" << dim;
  }
}

TEST(KnnGraphDescent, RecallOnParallelFixtureAtLeastRandomStart) {
  // Above the sequential floor, so the trees and the leaf joins run on a
  // pool. The seeded random-row start reached 0.999042 on this fixture in
  // 4 rounds and 6,373,908 evaluations; the forest start must not lose any
  // of that recall.
  const PointSet ps = embedding_fixture(4500, 64, 5);
  ASSERT_GE(ps.size(), 4096u);
  KnnGraphConfig cfg;
  cfg.k = 16;
  cfg.threads = 4;
  cfg.build = KnnGraphConfig::Build::kExact;
  const KnnGraph exact = build_knn_graph(ps, cfg);
  cfg.build = KnnGraphConfig::Build::kDescent;
  KnnGraphBuildStats stats;
  const KnnGraph approx = build_knn_graph(ps, cfg, &stats);
  EXPECT_GE(graph_recall(exact, approx), 0.999042);
  EXPECT_LT(stats.distance_evals, 6373908u);
}

TEST(KnnGraphDescent, PerRoundStatsAddUp) {
  const PointSet ps = embedding_fixture(1500, 64, 64);
  KnnGraphConfig cfg;
  cfg.k = 16;
  KnnGraphBuildStats stats;
  (void)build_knn_graph(ps, cfg, &stats);
  ASSERT_EQ(stats.per_round.size(), stats.rounds);
  u64 evals = stats.start_evals;
  u64 updates = 0;
  for (const KnnGraphRoundStats& r : stats.per_round) {
    evals += r.distance_evals;
    updates += r.updates;
    EXPECT_GE(r.wall_s, 0.0);
  }
  EXPECT_EQ(evals, stats.distance_evals);
  EXPECT_EQ(updates, stats.updates);
  EXPECT_GT(stats.start_evals, 0u);
  EXPECT_GT(stats.start_s, 0.0);
}

// The forest start on its own (max_rounds = 0): every row fills from its
// point's leaves, since a leaf holds at least k + 1 points.
KnnGraph forest_only(const PointSet& ps, u32 k, unsigned threads,
                     KnnGraphBuildStats* stats = nullptr) {
  KnnGraphConfig cfg;
  cfg.k = k;
  cfg.max_rounds = 0;
  cfg.threads = threads;
  return build_knn_graph(ps, cfg, stats);
}

void expect_full_self_free_rows(const KnnGraph& g) {
  for (PointId i = 0; i < static_cast<PointId>(g.size()); ++i) {
    ASSERT_EQ(g.row_size(i), g.k()) << "i=" << i;
    const auto ids = g.row_ids(i);
    for (u32 s = 0; s < g.k(); ++s) {
      ASSERT_NE(ids[s], i) << "self edge at i=" << i;
      for (u32 t = 0; t < s; ++t) {
        ASSERT_NE(ids[s], ids[t]) << "duplicate id at i=" << i;
      }
    }
  }
}

TEST(KnnGraphForest, EveryRowFillsFromItsLeaves) {
  // n = k + 2 is the smallest descent build: one leaf holds every point,
  // so the start is the exact graph and the first round changes nothing.
  // Larger n split into leaves of 4k..8k points, never fewer than k + 1.
  for (const i64 n : {6, 32, 33, 65, 100, 257}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const PointSet ps = embedding_fixture(n, 16, 40 + static_cast<u64>(n));
    KnnGraphBuildStats stats;
    const KnnGraph g = forest_only(ps, 4, 1, &stats);
    EXPECT_EQ(stats.rounds, 0u);
    EXPECT_EQ(stats.distance_evals, stats.start_evals);
    expect_full_self_free_rows(g);
  }
  const PointSet ps = embedding_fixture(18, 64, 18);
  KnnGraphConfig cfg;
  cfg.k = 16;
  KnnGraphBuildStats stats;
  const KnnGraph descent = build_knn_graph(ps, cfg, &stats);
  cfg.build = KnnGraphConfig::Build::kExact;
  EXPECT_EQ(descent.digest(), build_knn_graph(ps, cfg).digest());
  EXPECT_EQ(stats.start_evals, 18u * 17u * 4u);  // every pair, in 4 trees
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.updates, 0u);
}

TEST(KnnGraphForest, NonFiniteCoordinatesBuildTheSameGraphOnEveryThreadCount) {
  // NaN and infinite coordinates make NaN and infinite projections. NaN
  // sorts last, so the split order stays a strict total order and
  // nth_element stays defined (checked under `-L sanitize`, whose builds
  // add _GLIBCXX_ASSERTIONS). Above the sequential floor, so the trees and
  // joins run on a pool.
  const PointSet clean = embedding_fixture(4200, 16, 77);
  PointSet ps(16);
  for (PointId i = 0; i < static_cast<PointId>(clean.size()); ++i) {
    std::vector<double> row(clean[i].begin(), clean[i].end());
    const auto d = static_cast<size_t>(i % 16);
    if (i % 37 == 0) row[d] = std::numeric_limits<double>::quiet_NaN();
    if (i % 41 == 0) row[d] = std::numeric_limits<double>::infinity();
    if (i % 43 == 0) row[d] = -std::numeric_limits<double>::infinity();
    ps.add(row);
  }
  expect_full_self_free_rows(forest_only(ps, 8, 1));
  KnnGraphConfig cfg;
  cfg.k = 8;
  cfg.threads = 1;
  const u64 base = build_knn_graph(ps, cfg).digest();
  for (const unsigned threads : {2u, 4u}) {
    cfg.threads = threads;
    EXPECT_EQ(build_knn_graph(ps, cfg).digest(), base)
        << "threads=" << threads;
  }
}

TEST(KnnGraphForest, IdenticalPointsSplitInIdOrder) {
  // Every direction is zero and every projection 0, so each node halves
  // its range in id order; every distance is 0, so a row keeps the
  // smallest ids it meets.
  PointSet ps(8);
  for (int i = 0; i < 4500; ++i) {
    ps.add(std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8});
  }
  const KnnGraph start = forest_only(ps, 8, 1);
  expect_full_self_free_rows(start);
  KnnGraphConfig cfg;
  cfg.k = 8;
  cfg.threads = 1;
  const KnnGraph g = build_knn_graph(ps, cfg);
  expect_full_self_free_rows(g);
  for (PointId i = 0; i < static_cast<PointId>(g.size()); ++i) {
    const auto ids = g.row_ids(i);
    const auto d2s = g.row_d2(i);
    for (u32 s = 0; s < g.k(); ++s) {
      EXPECT_EQ(d2s[s], 0.0);
      if (s > 0) {
        EXPECT_LT(ids[s - 1], ids[s]) << "i=" << i;
      }
    }
  }
  cfg.threads = 4;
  EXPECT_EQ(build_knn_graph(ps, cfg).digest(), g.digest());
}

TEST(KnnGraphDescent, RowsAreSortedSelfFreeAndDuplicateFree) {
  const PointSet ps = embedding_fixture(800, 128, 3);
  KnnGraphConfig cfg;
  cfg.k = 10;
  const KnnGraph g = build_knn_graph(ps, cfg);
  for (PointId i = 0; i < static_cast<PointId>(ps.size()); ++i) {
    const auto ids = g.row_ids(i);
    const auto d2s = g.row_d2(i);
    const u32 m = g.row_size(i);
    EXPECT_EQ(m, cfg.k) << "i=" << i;  // n-1 >> k: rows must be full
    for (u32 s = 0; s < m; ++s) {
      EXPECT_NE(ids[s], i) << "self edge at i=" << i;
      EXPECT_EQ(d2s[s], squared_distance_uncounted(ps[i], ps[ids[s]]))
          << "stored d2 must be the true distance, i=" << i;
      if (s > 0) {
        EXPECT_LT((std::pair{d2s[s - 1], ids[s - 1]}),
                  (std::pair{d2s[s], ids[s]}))
            << "row not ascending (d2, id) at i=" << i;
      }
    }
  }
}

TEST(KnnGraphDescent, BitDeterministicAcrossThreadCounts) {
  // Builds below 4096 points run sequentially whatever `threads` says, so
  // the fixture sits above that floor to put every thread count here on a
  // real pool (and the parallel local join under TSan via `sanitize`).
  const PointSet ps = embedding_fixture(4500, 12, 55);
  ASSERT_GE(ps.size(), 4096u);
  for (const auto build :
       {KnnGraphConfig::Build::kExact, KnnGraphConfig::Build::kDescent}) {
    KnnGraphConfig cfg;
    cfg.k = 12;
    cfg.build = build;
    cfg.threads = 1;
    const u64 base = build_knn_graph(ps, cfg).digest();
    for (const unsigned threads : {0u, 2u, 4u, 7u}) {
      cfg.threads = threads;
      EXPECT_EQ(build_knn_graph(ps, cfg).digest(), base)
          << "threads=" << threads << " build=" << static_cast<int>(build);
    }
  }
}

// Descent graphs recorded from the forest start and the incremental local
// join. Any rewrite of the start, candidate generation or scoring must
// reproduce them bit for bit: rows and d2 bits (digest), rounds, updates
// and evaluation counts.
struct DescentGolden {
  i64 n;
  int dim;
  u64 fixture_seed;
  u32 k;
  u64 digest;
  u32 rounds;
  u64 updates;
  u64 distance_evals;
};

TEST(KnnGraphDescent, GoldenGraphsMatchReferenceJoin) {
  // {4500, 12}: above the sequential floor, so the default config
  // (threads = 0) builds it on a pool; {1500, 64}: the workload's
  // dimension, sequential.
  const DescentGolden goldens[] = {
      {4500, 12, 55, 16, 0xcdf39fbddb891bd4ull, 3, 10361, 2210686},
      {4500, 12, 55, 12, 0xd2f12f5f0da14b33ull, 3, 6638, 1921591},
      {1500, 64, 64, 16, 0x8f7d7e1621ab7207ull, 3, 1908, 840103},
      {1500, 64, 64, 12, 0xf0448b19b53bb71aull, 3, 1260, 768050},
  };
  for (const DescentGolden& g : goldens) {
    SCOPED_TRACE("n=" + std::to_string(g.n) + " dim=" +
                 std::to_string(g.dim) + " k=" + std::to_string(g.k));
    const PointSet ps = embedding_fixture(g.n, g.dim, g.fixture_seed);
    KnnGraphConfig cfg;
    cfg.k = g.k;
    KnnGraphBuildStats stats;
    const KnnGraph graph = build_knn_graph(ps, cfg, &stats);
    EXPECT_EQ(graph.digest(), g.digest);
    EXPECT_EQ(stats.rounds, g.rounds);
    EXPECT_EQ(stats.updates, g.updates);
    EXPECT_EQ(stats.distance_evals, g.distance_evals);
  }
}

TEST(KnnGraphDescent, NanCoordinatesMatchReferenceJoin) {
  // A NaN coordinate makes NaN sums, which are neither above nor below a
  // row's worst slot. Whether such a candidate is rejected depends on its
  // partial sums before the NaN; the build must still decide every one as
  // the reference join did (golden recorded from the forest start and the
  // incremental join).
  const PointSet clean = embedding_fixture(600, 64, 99);
  PointSet ps(64);
  for (PointId i = 0; i < static_cast<PointId>(clean.size()); ++i) {
    std::vector<double> row(clean[i].begin(), clean[i].end());
    if (i % 37 == 0) {
      row[static_cast<size_t>(20 + i % 40)] =
          std::numeric_limits<double>::quiet_NaN();
    }
    ps.add(row);
  }
  KnnGraphConfig cfg;
  cfg.k = 12;
  KnnGraphBuildStats stats;
  const KnnGraph graph = build_knn_graph(ps, cfg, &stats);
  EXPECT_EQ(graph.digest(), 0xa1c2e707da13eee1ull);
  EXPECT_EQ(stats.rounds, 12u);
  EXPECT_EQ(stats.updates, 5831u);
  EXPECT_EQ(stats.distance_evals, 248667u);
}

TEST(KnnGraphDescent, SeedChangesInitButConvergesToSimilarQuality) {
  const PointSet ps = embedding_fixture(1000, 64, 12);
  KnnGraphConfig exact_cfg;
  exact_cfg.k = 12;
  exact_cfg.build = KnnGraphConfig::Build::kExact;
  const KnnGraph exact = build_knn_graph(ps, exact_cfg);
  KnnGraphConfig cfg = exact_cfg;
  cfg.build = KnnGraphConfig::Build::kDescent;
  cfg.seed = 1;
  const KnnGraph a = build_knn_graph(ps, cfg);
  cfg.seed = 2;
  const KnnGraph b = build_knn_graph(ps, cfg);
  EXPECT_GE(graph_recall(exact, a), 0.90);
  EXPECT_GE(graph_recall(exact, b), 0.90);
}

#ifdef SDB_FAULT_INJECTION
TEST(KnnGraphChaos, DropEdgeFaultsSelfHealAndReplayByteIdentically) {
  // knn.graph.drop_edge skips candidate evaluations mid-build. NN-descent
  // is self-healing: a dropped candidate can resurface through a later
  // round's local join, and a budget-bounded plan must still yield a graph
  // good enough to cluster with. Replaying the same spec must reproduce
  // the exact same faulted graph (digest equality) — the repro contract of
  // the chaos framework.
  const PointSet ps = embedding_fixture(900, 64, 31);
  KnnGraphConfig exact_cfg;
  exact_cfg.k = 12;
  exact_cfg.build = KnnGraphConfig::Build::kExact;
  const KnnGraph exact = build_knn_graph(ps, exact_cfg);

  KnnGraphConfig cfg = exact_cfg;
  cfg.build = KnnGraphConfig::Build::kDescent;
  cfg.threads = 1;  // chaos runs pin one thread: totally ordered fault log

  for (const u64 fault_seed : {1u, 2u, 3u}) {
    const std::string spec = "seed=" + std::to_string(fault_seed) +
                             ";knn.graph.drop_edge:p=0.02,budget=500";
    SCOPED_TRACE("fault spec: " + spec);

    u64 first_digest = 0;
    u64 first_log = 0;
    {
      fault::ScopedFaultPlan chaos(spec);
      KnnGraphBuildStats stats;
      const KnnGraph faulted = build_knn_graph(ps, cfg, &stats);
      EXPECT_GT(stats.dropped_edges, 0u) << "plan never fired";
      EXPECT_GE(graph_recall(exact, faulted), 0.85)
          << "faulted build did not converge";
      first_digest = faulted.digest();
      first_log = chaos.plan().log_digest();
    }
    {
      fault::ScopedFaultPlan chaos(spec);
      const KnnGraph replay = build_knn_graph(ps, cfg);
      EXPECT_EQ(replay.digest(), first_digest);
      EXPECT_EQ(chaos.plan().log_digest(), first_log);
    }
  }
}

TEST(KnnGraphChaos, DropEdgeGoldenMatchesReferenceJoin) {
  // One faulted build recorded from the forest start and the incremental
  // join: the drop_edge site must be hit once per fresh candidate, in
  // ascending id order per point, so the same plan drops the same
  // candidates.
  const PointSet ps = embedding_fixture(900, 64, 31);
  KnnGraphConfig cfg;
  cfg.k = 12;
  cfg.threads = 1;
  fault::ScopedFaultPlan chaos("seed=1;knn.graph.drop_edge:p=0.02,budget=500");
  KnnGraphBuildStats stats;
  const KnnGraph faulted = build_knn_graph(ps, cfg, &stats);
  EXPECT_EQ(faulted.digest(), 0x32bc4e242390743aull);
  EXPECT_EQ(chaos.plan().log_digest(), 0xc32fec1baa526d6eull);
  EXPECT_EQ(stats.dropped_edges, 500u);
  EXPECT_EQ(stats.distance_evals, 314504u);
}

TEST(KnnGraphChaos, NoPlanMeansNoDrops) {
  const PointSet ps = embedding_fixture(400, 64, 8);
  KnnGraphConfig cfg;
  cfg.k = 8;
  KnnGraphBuildStats stats;
  (void)build_knn_graph(ps, cfg, &stats);
  EXPECT_EQ(stats.dropped_edges, 0u);
}
#endif  // SDB_FAULT_INJECTION

TEST(KnnGraphRecall, IdentityAndDisjointBounds) {
  const PointSet ps = embedding_fixture(300, 16, 4);
  KnnGraphConfig cfg;
  cfg.k = 8;
  cfg.build = KnnGraphConfig::Build::kExact;
  const KnnGraph g = build_knn_graph(ps, cfg);
  EXPECT_EQ(graph_recall(g, g), 1.0);

  // An empty approximate graph recovers nothing.
  const KnnGraph empty(ps.size(), cfg.k);
  EXPECT_EQ(graph_recall(g, empty), 0.0);
}

}  // namespace
}  // namespace sdb::knn
