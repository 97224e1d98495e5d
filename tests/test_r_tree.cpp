#include "spatial/r_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "spatial/brute_force.hpp"
#include "spatial/kd_tree.hpp"
#include "util/counters.hpp"
#include "util/rng.hpp"

namespace sdb {
namespace {

PointSet random_points(i64 n, int dim, double side, u64 seed) {
  Rng rng(seed);
  PointSet ps(dim);
  std::vector<double> p(static_cast<size_t>(dim));
  for (i64 i = 0; i < n; ++i) {
    for (auto& x : p) x = rng.uniform(0.0, side);
    ps.add(p);
  }
  return ps;
}

std::vector<PointId> sorted(std::vector<PointId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(RTree, EmptyAndSingle) {
  PointSet empty(2);
  RTree tree(empty);
  std::vector<PointId> out;
  const double q[2] = {0, 0};
  tree.range_query(q, 1.0, out);
  EXPECT_TRUE(out.empty());

  PointSet one(2);
  const double a[2] = {3, 4};
  one.add(a);
  RTree single(one);
  single.check_invariants();
  single.range_query(a, 0.1, out);
  EXPECT_EQ(out, std::vector<PointId>{0});
}

TEST(RTree, InvariantsAfterManyInserts) {
  for (const int fanout : {4, 8, 16, 32}) {
    const PointSet ps = random_points(3000, 3, 100.0, 11);
    RTree tree(ps, fanout);
    tree.check_invariants();
    EXPECT_GT(tree.height(), 1);
    EXPECT_GT(tree.node_count(), 3000u / static_cast<u32>(fanout));
  }
}

class RTreeMatchesBruteForce
    : public ::testing::TestWithParam<std::tuple<int, i64, double>> {};

TEST_P(RTreeMatchesBruteForce, RangeQueriesAgree) {
  const auto [dim, n, eps] = GetParam();
  const PointSet ps = random_points(n, dim, 100.0, 31 + static_cast<u64>(dim));
  const RTree tree(ps, 12);
  const BruteForceIndex brute(ps);
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    const PointId q = static_cast<PointId>(rng.uniform_index(ps.size()));
    std::vector<PointId> a;
    std::vector<PointId> b;
    tree.range_query(ps[q], eps, a);
    brute.range_query(ps[q], eps, b);
    EXPECT_EQ(sorted(a), sorted(b))
        << "dim=" << dim << " n=" << n << " eps=" << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RTreeMatchesBruteForce,
    ::testing::Values(std::make_tuple(2, 500, 8.0),
                      std::make_tuple(2, 3000, 15.0),
                      std::make_tuple(3, 1500, 20.0),
                      std::make_tuple(5, 1000, 45.0),
                      std::make_tuple(10, 800, 70.0),
                      std::make_tuple(1, 300, 4.0)));

TEST(RTree, AgreesWithKdTree) {
  const PointSet ps = random_points(2000, 4, 50.0, 41);
  const RTree rtree(ps);
  const KdTree kdtree(ps);
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const PointId q = static_cast<PointId>(rng.uniform_index(ps.size()));
    std::vector<PointId> a;
    std::vector<PointId> b;
    rtree.range_query(ps[q], 10.0, a);
    kdtree.range_query(ps[q], 10.0, b);
    EXPECT_EQ(sorted(a), sorted(b));
  }
}

TEST(RTree, DuplicatePoints) {
  PointSet ps(2);
  const double a[2] = {1, 1};
  for (int i = 0; i < 100; ++i) ps.add(a);
  RTree tree(ps, 8);
  tree.check_invariants();
  std::vector<PointId> out;
  tree.range_query(a, 0.5, out);
  EXPECT_EQ(out.size(), 100u);
}

TEST(RTree, NeighborBudgetRespected) {
  const PointSet ps = random_points(3000, 2, 10.0, 43);
  RTree tree(ps);
  QueryBudget budget;
  budget.max_neighbors = 7;
  std::vector<PointId> out;
  tree.range_query_budgeted(ps[0], 4.0, budget, out);
  EXPECT_LE(out.size(), 7u);
  std::vector<PointId> full;
  tree.range_query(ps[0], 4.0, full);
  EXPECT_GT(full.size(), 7u);
}

TEST(RTree, NodeBudgetStopsDescent) {
  const PointSet ps = random_points(5000, 3, 30.0, 47);
  RTree tree(ps, 8);
  QueryBudget budget;
  budget.max_nodes = 5;
  WorkCounters wc;
  {
    ScopedCounters scope(&wc);
    std::vector<PointId> out;
    tree.range_query_budgeted(ps[0], 10.0, budget, out);
  }
  // The query stops before the node past the cap, so it charges at most
  // max_nodes.
  EXPECT_LE(wc.tree_nodes, 5u);
}

TEST(RTree, PrunesFarQueries) {
  // A query far from all data must touch only the root.
  const PointSet ps = random_points(2000, 2, 10.0, 53);
  RTree tree(ps);
  WorkCounters wc;
  {
    ScopedCounters scope(&wc);
    std::vector<PointId> out;
    const double far[2] = {1e6, 1e6};
    tree.range_query(far, 1.0, out);
    EXPECT_TRUE(out.empty());
  }
  EXPECT_LE(wc.tree_nodes, 1u);
}

TEST(RTree, ByteSizeGrowsWithData) {
  const PointSet small = random_points(100, 2, 10.0, 59);
  const PointSet large = random_points(2000, 2, 10.0, 59);
  EXPECT_LT(RTree(small).byte_size(), RTree(large).byte_size());
}

}  // namespace
}  // namespace sdb
