#include "spatial/kd_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>

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
  // The query stops before the node past the cap, so it charges at most
  // max_nodes.
  EXPECT_LE(limited.tree_nodes, 10u);
  EXPECT_GT(full.tree_nodes, limited.tree_nodes);
}

TEST(KdTree, BuildIsBalancedish) {
  const PointSet ps = random_points(4096, 3, 100.0, 41);
  const KdTree tree(ps, 16);
  // Perfectly balanced depth would be log2(4096/16) = 8; allow slack.
  EXPECT_LE(tree.depth(), 14);
  EXPECT_GE(tree.leaf_count(), 4096u / 16);
  // Every wide node has at most kFanout slots, and every leaf fills one.
  EXPECT_GE(tree.node_count() * KdTree::kFanout, tree.leaf_count());
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
  ASSERT_GT(tree.leaf_count(), 8 * KdTree::kLeafBatch);
  QueryBudget node_capped;
  node_capped.max_nodes = 50;  // of the tree's wide nodes
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
        } else if (eps == 60.0) {
          // The widest radius reaches every node, so the cap fires.
          EXPECT_EQ(exact.tree_nodes, budget.max_nodes) << "q=" << q;
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
    budget.max_nodes = 1 + rng.uniform_index(8);  // of 19 wide nodes
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

/// 8 sites repeated over most rows, one row in four uniform: subtrees that
/// hold copies of one site end in degenerate-spread leaves of any size.
PointSet duplicate_heavy(i64 n, int dim, u64 seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> sites(8, std::vector<double>(
                                                static_cast<size_t>(dim)));
  for (auto& site : sites) {
    for (auto& x : site) x = rng.uniform(0.0, 20.0);
  }
  PointSet ps(dim);
  std::vector<double> p(static_cast<size_t>(dim));
  for (i64 i = 0; i < n; ++i) {
    if (rng.uniform_index(4) == 0) {
      for (auto& x : p) x = rng.uniform(0.0, 20.0);
      ps.add(p);
    } else {
      ps.add(sites[rng.uniform_index(sites.size())]);
    }
  }
  return ps;
}

u64 fold(u64 h, u64 v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(KdTree, TreeShapeGoldensForRangeAndKnn) {
  // Hits in order and distance_evals of range queries (exact and under
  // neighbor budgets) and kNN queries, on tree shapes the node layout must
  // carry: a root that is a leaf, leaves at uneven depths (n just past a
  // power of two times the leaf size, or not a power of two at all), leaf
  // sizes 1 and 4, and duplicate-heavy sets whose degenerate-spread leaves
  // stop splitting early. Recorded on the binary median-split descent;
  // tree_nodes is not pinned, since it counts the layout's nodes.
  struct Shape {
    const char* name;
    PointSet ps;
    int leaf_size;
    double eps;
    u64 range_digest;
    u64 range_evals;
    u64 knn_digest;
    u64 knn_evals;
  };
  const Shape shapes[] = {
      {"root leaf", random_points(150, 3, 10.0, 101), 192, 2.5,
       0xf39fa5b84689da1bull, 2139, 0x8c1a2df8d23782c8ull, 7650},
      {"uneven L192", random_points(1537, 5, 20.0, 103), 192, 5.0,
       0x6eb2227842b44c60ull, 76276, 0xd2f0d431c43e98deull, 81942},
      {"uneven L4", random_points(1000, 3, 20.0, 107), 4, 2.0,
       0x9f0fd3d00b5bbb18ull, 1910, 0xf97e5d8707c1b134ull, 3489},
      {"leaf 1", random_points(300, 2, 10.0, 109), 1, 1.5,
       0x9f90f846f8d4f12dull, 546, 0xf6dc9728d0ae149full, 762},
      {"duplicates L4", duplicate_heavy(1200, 3, 113), 4, 1.0,
       0x94de26008a906f2eull, 4969, 0x5b06983513ef58c4ull, 11470},
      {"duplicates L1", duplicate_heavy(400, 2, 127), 1, 1.0,
       0x2af91c7727a01ddeull, 1035, 0xd9f54b39a804d097ull, 2718},
  };
  for (const Shape& shape : shapes) {
    const PointSet& ps = shape.ps;
    const KdTree tree(ps, KdTreeOptions{.leaf_size = shape.leaf_size,
                                        .build_threads = 1});
    // Every 37th point, then off-data points across the data's range.
    std::vector<std::vector<double>> queries;
    for (size_t i = 0; i < ps.size(); i += 37) {
      const auto p = ps[static_cast<PointId>(i)];
      queries.emplace_back(p.begin(), p.end());
    }
    Rng rng(131);
    for (int i = 0; i < 12; ++i) {
      std::vector<double> q(static_cast<size_t>(ps.dim()));
      for (auto& x : q) x = rng.uniform(-1.0, 21.0);
      queries.push_back(std::move(q));
    }
    u64 range_digest = 14695981039346656037ull;
    u64 range_evals = 0;
    u64 knn_digest = 14695981039346656037ull;
    u64 knn_evals = 0;
    for (const auto& q : queries) {
      for (const u64 max_neighbors : {u64{0}, u64{4}, u64{64}}) {
        const QueryRun run =
            run_query(tree, q, shape.eps,
                      QueryBudget{.max_neighbors = max_neighbors});
        for (const PointId id : run.hits) {
          range_digest = fold(range_digest, static_cast<u64>(id));
        }
        range_digest = fold(range_digest, ~u64{0});
        range_evals += run.distance_evals;
      }
      for (const size_t k : {size_t{1}, size_t{5}, size_t{16}}) {
        std::vector<KnnHit> hits;
        WorkCounters wc;
        {
          ScopedCounters scope(&wc);
          tree.knn_query(q, k, QueryBudget{}, hits);
        }
        for (const KnnHit& hit : hits) {
          knn_digest = fold(knn_digest, static_cast<u64>(hit.id));
          knn_digest = fold(knn_digest, std::bit_cast<u64>(hit.d2));
        }
        knn_digest = fold(knn_digest, ~u64{0});
        knn_evals += wc.distance_evals;
      }
    }
    EXPECT_EQ(range_digest, shape.range_digest) << shape.name;
    EXPECT_EQ(range_evals, shape.range_evals) << shape.name;
    EXPECT_EQ(knn_digest, shape.knn_digest) << shape.name;
    EXPECT_EQ(knn_evals, shape.knn_evals) << shape.name;
    if (HasFailure()) {
      std::printf("%s: 0x%016llxull, %llu, 0x%016llxull, %llu\n", shape.name,
                  static_cast<unsigned long long>(range_digest),
                  static_cast<unsigned long long>(range_evals),
                  static_cast<unsigned long long>(knn_digest),
                  static_cast<unsigned long long>(knn_evals));
    }
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
