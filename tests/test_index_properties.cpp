// Cross-index property sweep: every SpatialIndex implementation must agree
// with every other on exact queries, and budgeted queries must return
// subsets of the exact result.
#include <gtest/gtest.h>

#include <algorithm>

#include "geom/distance.hpp"
#include "query_oracles.hpp"
#include "spatial/brute_force.hpp"
#include "spatial/grid_index.hpp"
#include "spatial/kd_tree.hpp"
#include "spatial/r_tree.hpp"
#include "synth/generators.hpp"
#include "util/rng.hpp"

namespace sdb {
namespace {

PointSet clustered_points(i64 n, int dim, u64 seed) {
  Rng rng(seed);
  synth::GaussianMixtureConfig cfg;
  cfg.n = n;
  cfg.dim = dim;
  cfg.clusters = 4;
  cfg.sigma = 2.0;
  cfg.noise_fraction = 0.1;
  cfg.box_side = 80.0;
  return synth::gaussian_clusters(cfg, rng);
}

std::vector<PointId> sorted(std::vector<PointId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

class AllIndexesAgree : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(AllIndexesAgree, ExactQueriesIdentical) {
  const auto [dim, eps] = GetParam();
  const PointSet ps = clustered_points(900, dim, 71 + static_cast<u64>(dim));
  const KdTree kd(ps);
  const RTree rt(ps);
  const GridIndex grid(ps, eps);
  const BruteForceIndex brute(ps);
  const std::vector<const SpatialIndex*> indexes = {&kd, &rt, &grid, &brute};

  Rng rng(9);
  for (int trial = 0; trial < 25; ++trial) {
    const PointId q = static_cast<PointId>(rng.uniform_index(ps.size()));
    std::vector<PointId> reference;
    brute.range_query(ps[q], eps, reference);
    const auto expected = sorted(reference);
    for (const SpatialIndex* index : indexes) {
      std::vector<PointId> out;
      index->range_query(ps[q], eps, out);
      EXPECT_EQ(sorted(out), expected)
          << index->name() << " dim=" << dim << " eps=" << eps;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllIndexesAgree,
                         ::testing::Values(std::make_tuple(2, 3.0),
                                           std::make_tuple(3, 5.0),
                                           std::make_tuple(5, 9.0)));

/// Adversarial datasets for the parity sweep: exact duplicates, pairs at
/// exactly eps (the boundary the <= eps contract must include), degenerate
/// 1-d data, and the paper's high-d regime where AABB pruning barely helps.
PointSet adversarial_points(i64 n, int dim, double eps, u64 seed) {
  Rng rng(seed);
  PointSet ps(dim);
  std::vector<double> p(static_cast<size_t>(dim));
  std::vector<double> q(static_cast<size_t>(dim));
  for (i64 i = 0; i < n; ++i) {
    for (auto& x : p) x = rng.uniform(0.0, 40.0);
    ps.add(p);
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.15) {
      ps.add(p);  // exact duplicate
    } else if (roll < 0.3) {
      // A partner offset by exactly eps along one axis: lands on (or within
      // one ulp of) the closed-ball boundary, where any index that compares
      // with < instead of <= — or computes distance in a different order —
      // diverges from the others.
      q = p;
      q[static_cast<size_t>(rng.uniform_index(static_cast<size_t>(dim)))] +=
          eps;
      ps.add(q);
    }
  }
  return ps;
}

class IndexParityAdversarial
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(IndexParityAdversarial, AllIndexesAndLayoutsAgree) {
  const auto [dim, eps] = GetParam();
  const PointSet ps =
      adversarial_points(700, dim, eps, 113 + static_cast<u64>(dim));
  const KdTree kd(ps, KdTreeOptions{.build_threads = 4});
  const RTree rt(ps);
  const GridIndex grid(ps, eps);
  const BruteForceIndex brute(ps);
  const std::vector<const SpatialIndex*> indexes = {&kd, &rt, &grid, &brute};
  Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    const PointId q = static_cast<PointId>(rng.uniform_index(ps.size()));
    const auto expected = test::per_point_hits(ps, ps[q], eps);
    // The kd-tree's exact path (collected leaves, one range-scan call each)
    // against its per-strip budgeted scan: same order, same counters.
    const auto kd_exact = test::run_query(kd, ps[q], eps);
    const auto kd_reference = test::run_unreachable_budget(kd, ps[q], eps);
    EXPECT_EQ(kd_exact.hits, kd_reference.hits)
        << "dim=" << dim << " eps=" << eps << " q=" << q;
    EXPECT_EQ(kd_exact.distance_evals, kd_reference.distance_evals)
        << "dim=" << dim << " eps=" << eps << " q=" << q;
    EXPECT_EQ(kd_exact.tree_nodes, kd_reference.tree_nodes)
        << "dim=" << dim << " eps=" << eps << " q=" << q;
    for (const SpatialIndex* index : indexes) {
      std::vector<PointId> out;
      index->range_query(ps[q], eps, out);
      EXPECT_EQ(sorted(out), expected)
          << index->name() << " dim=" << dim << " eps=" << eps << " q=" << q;
      // Kernel-variant parity: the same query with dispatch pinned to the
      // scalar fallback must return the exact same ids in the exact same
      // (unsorted) order — the SIMD kernels' bit-identical contract, probed
      // here on the adversarial exactly-eps / duplicate fixtures.
      simd::force_scalar(true);
      std::vector<PointId> out_scalar;
      index->range_query(ps[q], eps, out_scalar);
      simd::force_scalar(false);
      EXPECT_EQ(out_scalar, out)
          << index->name() << " scalar-vs-simd divergence, dim=" << dim
          << " eps=" << eps << " q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, IndexParityAdversarial,
                         ::testing::Values(std::make_tuple(1, 2.0),
                                           std::make_tuple(2, 3.0),
                                           std::make_tuple(5, 8.0),
                                           std::make_tuple(10, 20.0)));

TEST(BudgetLaws, BudgetedIsSubsetOfExactForAllIndexes) {
  const PointSet ps = clustered_points(1200, 2, 83);
  const KdTree kd(ps);
  const RTree rt(ps);
  const BruteForceIndex brute(ps);
  const std::vector<const SpatialIndex*> indexes = {&kd, &rt, &brute};
  Rng rng(13);
  for (const SpatialIndex* index : indexes) {
    for (int trial = 0; trial < 15; ++trial) {
      const PointId q = static_cast<PointId>(rng.uniform_index(ps.size()));
      std::vector<PointId> exact;
      index->range_query(ps[q], 4.0, exact);
      QueryBudget budget;
      budget.max_neighbors = 1 + rng.uniform_index(8);
      std::vector<PointId> limited;
      index->range_query_budgeted(ps[q], 4.0, budget, limited);
      EXPECT_LE(limited.size(), budget.max_neighbors) << index->name();
      const auto exact_sorted = sorted(exact);
      for (const PointId id : limited) {
        EXPECT_TRUE(std::binary_search(exact_sorted.begin(),
                                       exact_sorted.end(), id))
            << index->name();
      }
    }
  }
}

TEST(KnnLaws, KGreaterThanNReturnsAll) {
  const PointSet ps = clustered_points(50, 3, 91);
  const KdTree kd(ps);
  const auto nn = kd.knn(ps[0], 500);
  EXPECT_EQ(nn.size(), 50u);
}

TEST(KnnLaws, Deterministic) {
  const PointSet ps = clustered_points(300, 3, 97);
  const KdTree kd(ps);
  EXPECT_EQ(kd.knn(ps[5], 10), kd.knn(ps[5], 10));
}

TEST(KnnLaws, PrefixConsistency) {
  // knn(k) distances are a prefix of knn(k') distances for k < k'.
  const PointSet ps = clustered_points(400, 2, 101);
  const KdTree kd(ps);
  const auto small = kd.knn(ps[7], 5);
  const auto large = kd.knn(ps[7], 15);
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_DOUBLE_EQ(squared_distance(ps[7], ps[small[i]]),
                     squared_distance(ps[7], ps[large[i]]));
  }
}

}  // namespace
}  // namespace sdb
