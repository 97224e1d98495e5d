#include "spatial/kd_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "geom/distance.hpp"
#include "query_oracles.hpp"
#include "spatial/brute_force.hpp"
#include "util/counters.hpp"
#include "util/rng.hpp"

namespace sdb {
namespace {

using test::per_point_hits;
using test::QueryRun;
using test::run_query;
using test::run_unreachable_budget;

PointSet random_points(i64 n, int dim, double side, u64 seed) {
  Rng rng(seed);
  PointSet ps(dim);
  ps.reserve(static_cast<size_t>(n));
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

TEST(KdTree, EmptySet) {
  PointSet ps(3);
  KdTree tree(ps);
  std::vector<PointId> out;
  const double q[3] = {0, 0, 0};
  tree.range_query(q, 1.0, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tree.size(), 0u);
}

TEST(KdTree, SinglePoint) {
  PointSet ps(2);
  const double a[2] = {1, 1};
  ps.add(a);
  KdTree tree(ps);
  std::vector<PointId> out;
  tree.range_query(a, 0.1, out);
  EXPECT_EQ(out, std::vector<PointId>{0});
  out.clear();
  const double far[2] = {5, 5};
  tree.range_query(far, 0.1, out);
  EXPECT_TRUE(out.empty());
}

TEST(KdTree, DuplicatePointsAllReported) {
  PointSet ps(2);
  const double a[2] = {1, 1};
  for (int i = 0; i < 50; ++i) ps.add(a);
  KdTree tree(ps, 4);
  std::vector<PointId> out;
  tree.range_query(a, 0.5, out);
  EXPECT_EQ(out.size(), 50u);
}

class KdTreeMatchesBruteForce
    : public ::testing::TestWithParam<std::tuple<int, i64, double>> {};

TEST_P(KdTreeMatchesBruteForce, RangeQueriesAgree) {
  const auto [dim, n, eps] = GetParam();
  const PointSet ps = random_points(n, dim, 100.0, 7 + static_cast<u64>(dim));
  const KdTree tree(ps, 8);
  const BruteForceIndex brute(ps);
  Rng rng(55);
  for (int trial = 0; trial < 50; ++trial) {
    const PointId q = static_cast<PointId>(rng.uniform_index(ps.size()));
    std::vector<PointId> a;
    std::vector<PointId> b;
    tree.range_query(ps[q], eps, a);
    brute.range_query(ps[q], eps, b);
    EXPECT_EQ(sorted(a), sorted(b)) << "dim=" << dim << " n=" << n
                                    << " eps=" << eps << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeMatchesBruteForce,
    ::testing::Values(std::make_tuple(2, 500, 5.0),
                      std::make_tuple(2, 2000, 12.0),
                      std::make_tuple(3, 1000, 15.0),
                      std::make_tuple(5, 1000, 40.0),
                      std::make_tuple(10, 800, 60.0),
                      std::make_tuple(10, 800, 5.0),
                      std::make_tuple(1, 300, 3.0)));

TEST(KdTree, KnnMatchesBruteForce) {
  const PointSet ps = random_points(800, 4, 50.0, 17);
  const KdTree tree(ps, 8);
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const PointId q = static_cast<PointId>(rng.uniform_index(ps.size()));
    const size_t k = 1 + rng.uniform_index(20);
    const auto knn = tree.knn(ps[q], k);
    ASSERT_EQ(knn.size(), std::min(k, ps.size()));
    // Compare against brute-force k smallest distances.
    std::vector<std::pair<double, PointId>> all;
    for (PointId i = 0; i < static_cast<PointId>(ps.size()); ++i) {
      all.emplace_back(squared_distance(ps[q], ps[i]), i);
    }
    std::sort(all.begin(), all.end());
    // Distances must match (ids may tie arbitrarily).
    for (size_t i = 0; i < knn.size(); ++i) {
      EXPECT_DOUBLE_EQ(squared_distance(ps[q], ps[knn[i]]), all[i].first);
    }
  }
}

TEST(KdTree, KnnOrderedNearestFirst) {
  const PointSet ps = random_points(300, 3, 50.0, 23);
  const KdTree tree(ps);
  const auto knn = tree.knn(ps[0], 10);
  for (size_t i = 1; i < knn.size(); ++i) {
    EXPECT_LE(squared_distance(ps[0], ps[knn[i - 1]]),
              squared_distance(ps[0], ps[knn[i]]));
  }
  EXPECT_EQ(knn[0], 0);  // the query point itself is its own nearest
}

TEST(KdTree, NeighborBudgetCapsResults) {
  const PointSet ps = random_points(2000, 2, 10.0, 31);
  const KdTree tree(ps);
  QueryBudget budget;
  budget.max_neighbors = 5;
  std::vector<PointId> out;
  tree.range_query_budgeted(ps[0], 5.0, budget, out);
  EXPECT_LE(out.size(), 5u);
  // Without budget there are far more.
  std::vector<PointId> full;
  tree.range_query(ps[0], 5.0, full);
  EXPECT_GT(full.size(), 5u);
  // Budgeted results are a subset of the exact results.
  for (const PointId id : out) {
    EXPECT_NE(std::find(full.begin(), full.end(), id), full.end());
  }
}

TEST(KdTree, NodeBudgetReducesVisits) {
  const PointSet ps = random_points(5000, 3, 30.0, 37);
  const KdTree tree(ps, 8);
  QueryBudget budget;
  budget.max_nodes = 10;
  WorkCounters limited;
  {
    ScopedCounters scope(&limited);
    std::vector<PointId> out;
    tree.range_query_budgeted(ps[0], 10.0, budget, out);
  }
  WorkCounters full;
  {
    ScopedCounters scope(&full);
    std::vector<PointId> out;
    tree.range_query(ps[0], 10.0, out);
  }
  EXPECT_LE(limited.tree_nodes, 11u);
  EXPECT_GT(full.tree_nodes, limited.tree_nodes);
}

TEST(KdTree, BuildIsBalancedish) {
  const PointSet ps = random_points(4096, 3, 100.0, 41);
  const KdTree tree(ps, 16);
  // Perfectly balanced depth would be log2(4096/16) = 8; allow slack.
  EXPECT_LE(tree.depth(), 14);
  EXPECT_GT(tree.node_count(), 4096u / 16);
}

TEST(KdTree, ByteSizeNonTrivial) {
  const PointSet ps = random_points(100, 5, 10.0, 43);
  const KdTree tree(ps);
  EXPECT_GE(tree.byte_size(), ps.byte_size());
}

TEST(KdTree, ParallelBuildMatchesSequential) {
  // n above the parallel threshold so the pool actually engages. The forked
  // tasks run nth_element on disjoint id subranges, so structure, depth,
  // ids permutation — and therefore every query answer, in order — must be
  // identical to the sequential build. (This test carries the `sanitize`
  // ctest label: under -DSDB_SANITIZE=thread it is the TSan entry point for
  // the parallel build path.)
  const PointSet ps = random_points(30000, 3, 200.0, 59);
  const KdTree seq(ps, KdTreeOptions{.build_threads = 1});
  const KdTree par(ps, KdTreeOptions{.build_threads = 4});
  EXPECT_EQ(seq.node_count(), par.node_count());
  EXPECT_EQ(seq.depth(), par.depth());
  EXPECT_EQ(seq.byte_size(), par.byte_size());
  Rng rng(61);
  for (int trial = 0; trial < 40; ++trial) {
    const PointId q = static_cast<PointId>(rng.uniform_index(ps.size()));
    std::vector<PointId> a;
    std::vector<PointId> b;
    seq.range_query(ps[q], 6.0, a);
    par.range_query(ps[q], 6.0, b);
    EXPECT_EQ(a, b) << "q=" << q;  // order included
  }
}

TEST(KdTree, ReorderedMatchesLegacyExactlyIncludingCounters) {
  // The exact query (leaves collected in batches of kLeafBatch, one
  // range-scan call each) must find the per-point loop's hit set, and
  // report them in the same order with the same distance_evals and
  // tree_nodes as the same descent scanning each leaf as it is reached (a
  // neighbor budget that never fills) — the counter prices simulated
  // executor work, so "faster" must never mean "counted differently".
  const PointSet ps = random_points(5000, 4, 60.0, 67);
  const KdTree tree(ps, KdTreeOptions{.build_threads = 1});
  Rng rng(71);
  for (int trial = 0; trial < 40; ++trial) {
    const PointId q = static_cast<PointId>(rng.uniform_index(ps.size()));
    const QueryRun exact = run_query(tree, ps[q], 8.0, QueryBudget{});
    const QueryRun reference = run_unreachable_budget(tree, ps[q], 8.0);
    EXPECT_EQ(sorted(exact.hits), per_point_hits(ps, ps[q], 8.0));
    EXPECT_EQ(exact.hits, reference.hits);
    EXPECT_EQ(exact.distance_evals, reference.distance_evals);
    EXPECT_EQ(exact.tree_nodes, reference.tree_nodes);
  }
}

TEST(KdTree, QueryReachingMoreLeavesThanTheLeafBatchMatchesLegacy) {
  // An exact query collects the leaves it reaches and scans them in
  // batches of KdTree::kLeafBatch. Tiny leaves and a radius that reaches
  // most of them make a query fill the batch many times over, and a node
  // budget makes the descent stop with a partial batch collected: the hit
  // set must still be the per-point loop's (without the node budget), and
  // hits, their order and the counters those of the leaf-at-a-time
  // schedule (a neighbor budget that never fills) under the same node
  // budget.
  const PointSet ps = random_points(3000, 3, 30.0, 83);
  const KdTree tree(ps, KdTreeOptions{.leaf_size = 4, .build_threads = 1});
  const size_t leaves = (tree.node_count() + 1) / 2;
  ASSERT_GT(leaves, 8 * KdTree::kLeafBatch);
  QueryBudget node_capped;
  node_capped.max_nodes = 700;
  for (const double eps : {6.0, 20.0, 60.0}) {
    for (const QueryBudget& budget : {QueryBudget{}, node_capped}) {
      for (const PointId q : {PointId{0}, PointId{1234}, PointId{2999}}) {
        const QueryRun exact = run_query(tree, ps[q], eps, budget);
        const QueryRun reference =
            run_unreachable_budget(tree, ps[q], eps, budget.max_nodes);
        EXPECT_EQ(exact.hits, reference.hits)
            << "eps=" << eps << " max_nodes=" << budget.max_nodes
            << " q=" << q;
        EXPECT_EQ(exact.distance_evals, reference.distance_evals);
        EXPECT_EQ(exact.tree_nodes, reference.tree_nodes);
        if (budget.max_nodes == 0) {
          EXPECT_EQ(sorted(exact.hits), per_point_hits(ps, ps[q], eps))
              << "eps=" << eps << " q=" << q;
        }
      }
    }
  }
  // The widest radius reaches every leaf, so it reports every point.
  std::vector<PointId> all;
  tree.range_query(ps[0], 60.0, all);
  EXPECT_EQ(all.size(), ps.size());
}

TEST(KdTree, BudgetedQueriesReproducible) {
  // The QueryBudget approximation contract (spatial_index.hpp): truncation
  // follows the fixed traversal order, so repeated invocations — and trees
  // built with different thread counts — return the identical sequence.
  const PointSet ps = random_points(20000, 3, 40.0, 73);
  const KdTree seq(ps, KdTreeOptions{.build_threads = 1});
  const KdTree par(ps, KdTreeOptions{.build_threads = 4});
  Rng rng(79);
  for (int trial = 0; trial < 25; ++trial) {
    const PointId q = static_cast<PointId>(rng.uniform_index(ps.size()));
    QueryBudget budget;
    budget.max_neighbors = 1 + rng.uniform_index(16);
    budget.max_nodes = 8 + rng.uniform_index(64);
    std::vector<PointId> first;
    seq.range_query_budgeted(ps[q], 5.0, budget, first);
    for (int repeat = 0; repeat < 3; ++repeat) {
      std::vector<PointId> again;
      seq.range_query_budgeted(ps[q], 5.0, budget, again);
      EXPECT_EQ(first, again);
    }
    std::vector<PointId> parallel_tree;
    par.range_query_budgeted(ps[q], 5.0, budget, parallel_tree);
    EXPECT_EQ(first, parallel_tree);
  }
}

TEST(KdTree, CountsTreeNodeVisits) {
  const PointSet ps = random_points(1000, 2, 50.0, 47);
  const KdTree tree(ps, 8);
  WorkCounters wc;
  {
    ScopedCounters scope(&wc);
    std::vector<PointId> out;
    tree.range_query(ps[0], 1.0, out);
  }
  EXPECT_GT(wc.tree_nodes, 0u);
}

}  // namespace
}  // namespace sdb
