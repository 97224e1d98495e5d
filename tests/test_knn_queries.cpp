// Unified kNN query contract across the spatial indexes (satellite of the
// KNN-DBSCAN backend PR; the contract lives on SpatialIndex::knn_query).
//
// Every index — kd-tree (default and tiny leaves) and brute force — must
// return the SAME hit vector for the same query, the per-point
// oracle's (brute_oracle, query_oracles.hpp): exact kNN under the
// lexicographic (d2, id) order, ties at the k-th distance broken by point
// id. Duplicated points and exactly-equidistant partners make the tie-break
// observable; any index that kept heap-insertion order would diverge here.
//
// The counter contract is regression-tested the same way the range-query
// suite pins distance_evals: a traversal forced to examine every row (k >=
// n) charges exactly n distance_evals on EVERY index, and budget
// semantics are uniform — max_nodes caps node visits deterministically,
// max_neighbors is ignored for kNN.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "geom/distance.hpp"
#include "query_oracles.hpp"
#include "spatial/brute_force.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/generators.hpp"
#include "util/counters.hpp"
#include "util/rng.hpp"

namespace sdb {
namespace {

using test::brute_oracle;

/// Dataset where ties are the common case, not the corner: duplicated
/// points (d2 ties at 0 and at every shared neighbor) and partners offset
/// by the same amount along different axes (equal d2, different id).
PointSet tie_heavy_points(size_t n, size_t dim, u64 seed) {
  Rng rng(seed);
  PointSet ps(static_cast<int>(dim));
  std::vector<double> p(dim), partner(dim);
  while (ps.size() < n) {
    for (auto& x : p) x = rng.uniform(0.0, 40.0);
    ps.add(p);
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.3) {
      ps.add(p);  // exact duplicate -> d2 tie at every query
    } else if (roll < 0.6 && dim >= 2) {
      // Two partners at identical distance from p along different axes:
      // any query near p sees an exact (d2, d2) tie between distinct ids.
      partner = p;
      partner[0] += 3.0;
      ps.add(partner);
      partner = p;
      partner[0] -= 3.0;
      ps.add(partner);
    }
  }
  return ps;
}

struct IndexSet {
  KdTree kd;
  /// Leaves of 4 points: k exceeds a leaf's occupancy at once, so the heap
  /// fills across many leaves by the scalar scan before the kernel filter
  /// takes over.
  KdTree kd_small_leaves;
  BruteForceIndex brute;
  std::vector<const SpatialIndex*> all;

  explicit IndexSet(const PointSet& ps)
      : kd(ps, KdTreeOptions{.build_threads = 1}),
        kd_small_leaves(ps, KdTreeOptions{.leaf_size = 4, .build_threads = 1}),
        brute(ps) {
    all = {&kd, &kd_small_leaves, &brute};
  }
};

TEST(KnnQueryParity, AllIndexesMatchTheOracleIncludingTies) {
  const PointSet ps = tie_heavy_points(500, 4, 11);
  IndexSet idx(ps);
  const QueryBudget exact;

  for (const size_t k : {size_t{1}, size_t{2}, size_t{7}, size_t{33},
                         size_t{ps.size()}, ps.size() + 5}) {
    for (PointId q = 0; q < static_cast<PointId>(ps.size());
         q += static_cast<PointId>(ps.size() / 60 + 1)) {
      const auto want = brute_oracle(ps, ps[q], k);
      for (const SpatialIndex* index : idx.all) {
        std::vector<KnnHit> got;
        index->knn_query(ps[q], k, exact, got);
        EXPECT_EQ(got, want) << index->name() << " k=" << k << " q=" << q;
      }
    }
  }
}

TEST(KnnQueryParity, HighDimMatchesOracle) {
  // d=64: box pruning barely discriminates, so the traversals visit nearly
  // everything — the regime the KNN backend is for. Parity must hold here
  // too (this is where the heap-cutoff kernel filter bugs hid).
  Rng rng(21);
  synth::EmbeddingConfig cfg;
  cfg.n = 400;
  cfg.dim = 64;
  cfg.clusters = 4;
  const PointSet ps = synth::embedding_clusters(cfg, rng);
  IndexSet idx(ps);
  const QueryBudget exact;

  for (const size_t k : {size_t{1}, size_t{16}, size_t{50}}) {
    for (PointId q = 0; q < 40; ++q) {
      const auto want = brute_oracle(ps, ps[q], k);
      for (const SpatialIndex* index : idx.all) {
        std::vector<KnnHit> got;
        index->knn_query(ps[q], k, exact, got);
        EXPECT_EQ(got, want) << index->name() << " k=" << k << " q=" << q;
      }
    }
  }
}

TEST(KnnQueryCounters, ExhaustiveTraversalChargesExactlyNEverywhere) {
  // k >= n forces every index to examine every row; the unified contract
  // says that costs exactly one distance_eval per row on every index, no
  // double-charging across kernel blocks, no skipping via the cutoff
  // filter.
  const PointSet ps = tie_heavy_points(300, 3, 5);
  IndexSet idx(ps);
  const QueryBudget exact;

  for (PointId q = 0; q < 25; ++q) {
    for (const SpatialIndex* index : idx.all) {
      WorkCounters wc;
      std::vector<KnnHit> hits;
      {
        ScopedCounters scope(&wc);
        index->knn_query(ps[q], ps.size(), exact, hits);
      }
      EXPECT_EQ(hits.size(), ps.size()) << index->name() << " q=" << q;
      EXPECT_EQ(wc.distance_evals, ps.size()) << index->name() << " q=" << q;
    }
  }
}

TEST(KnnQueryCounters, ChargesMatchScalarReference) {
  // distance_evals counts candidate rows EXAMINED — independent of whether
  // the SIMD cutoff filter or partial-distance abandonment short-circuited
  // the arithmetic. Dispatched and forced-scalar runs must charge the same.
  const PointSet ps = tie_heavy_points(400, 6, 77);
  IndexSet idx(ps);
  const QueryBudget exact;

  for (const size_t k : {size_t{4}, size_t{32}}) {
    for (PointId q = 0; q < 30; ++q) {
      for (const SpatialIndex* index : idx.all) {
        auto run = [&] {
          WorkCounters wc;
          std::vector<KnnHit> hits;
          {
            ScopedCounters scope(&wc);
            index->knn_query(ps[q], k, exact, hits);
          }
          return std::make_tuple(hits, wc.distance_evals, wc.tree_nodes);
        };
        const auto dispatched = run();
        simd::force_scalar(true);
        const auto scalar = run();
        simd::force_scalar(false);
        EXPECT_EQ(dispatched, scalar) << index->name() << " k=" << k
                                      << " q=" << q;
      }
    }
  }
}

TEST(KnnQueryBudget, MaxNeighborsIsIgnored) {
  // k itself is the result-size bound; budget.max_neighbors must have no
  // effect on kNN results or charges (documented in spatial_index.hpp).
  const PointSet ps = tie_heavy_points(300, 4, 13);
  IndexSet idx(ps);

  for (const u64 max_neighbors : {u64{0}, u64{1}, u64{5}, u64{1000}}) {
    QueryBudget budget;
    budget.max_neighbors = max_neighbors;
    for (PointId q = 0; q < 20; ++q) {
      for (const SpatialIndex* index : idx.all) {
        std::vector<KnnHit> with_budget, without;
        WorkCounters wc_with, wc_without;
        {
          ScopedCounters scope(&wc_with);
          index->knn_query(ps[q], 10, budget, with_budget);
        }
        {
          ScopedCounters scope(&wc_without);
          index->knn_query(ps[q], 10, QueryBudget{}, without);
        }
        EXPECT_EQ(with_budget, without)
            << index->name() << " max_neighbors=" << max_neighbors;
        EXPECT_EQ(wc_with.distance_evals, wc_without.distance_evals)
            << index->name() << " max_neighbors=" << max_neighbors;
      }
    }
  }
}

TEST(KnnQueryBudget, MaxNodesIsDeterministicAndBruteStaysExact) {
  const PointSet ps = tie_heavy_points(400, 4, 17);
  IndexSet idx(ps);

  for (const u64 max_nodes : {u64{1}, u64{4}, u64{16}, u64{1 << 20}}) {
    QueryBudget budget;
    budget.max_nodes = max_nodes;
    for (PointId q = 0; q < 20; ++q) {
      for (const SpatialIndex* index : idx.all) {
        std::vector<KnnHit> first, second;
        index->knn_query(ps[q], 8, budget, first);
        index->knn_query(ps[q], 8, budget, second);
        // Fixed traversal order -> the budgeted result is a deterministic
        // function of (index, query, budget).
        EXPECT_EQ(first, second) << index->name() << " max_nodes="
                                 << max_nodes;
      }
      // Brute force has no nodes: any max_nodes stays exact.
      std::vector<KnnHit> brute_hits;
      idx.brute.knn_query(ps[q], 8, budget, brute_hits);
      EXPECT_EQ(brute_hits, brute_oracle(ps, ps[q], 8))
          << "max_nodes=" << max_nodes;
      // A generous cap must not change the exact answer on any index.
      if (max_nodes >= (u64{1} << 20)) {
        for (const SpatialIndex* index : idx.all) {
          std::vector<KnnHit> capped;
          index->knn_query(ps[q], 8, budget, capped);
          EXPECT_EQ(capped, brute_oracle(ps, ps[q], 8)) << index->name();
        }
      }
    }
  }
}

TEST(KnnQueryEdgeCases, EmptyKZeroAndShortDatasets) {
  PointSet ps(3);
  ps.add(std::vector<double>{1.0, 2.0, 3.0});
  ps.add(std::vector<double>{1.0, 2.0, 3.0});  // duplicate: tie at d2=0
  IndexSet idx(ps);
  const QueryBudget exact;

  for (const SpatialIndex* index : idx.all) {
    std::vector<KnnHit> hits;
    index->knn_query(ps[0], 0, exact, hits);
    EXPECT_TRUE(hits.empty()) << index->name();
    index->knn_query(ps[0], 10, exact, hits);
    ASSERT_EQ(hits.size(), 2u) << index->name();
    // Tie at d2=0 broken by id.
    EXPECT_EQ(hits[0], (KnnHit{0.0, 0})) << index->name();
    EXPECT_EQ(hits[1], (KnnHit{0.0, 1})) << index->name();
  }
}

}  // namespace
}  // namespace sdb
