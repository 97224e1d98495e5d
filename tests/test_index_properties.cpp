// Cross-index property sweep: every SpatialIndex implementation must agree
// with every other on exact queries, budgeted queries must return subsets
// of the exact result, and each index's hits and work counters under a set
// of budgets are pinned by golden digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <utility>
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
  const BruteForceIndex brute(ps);
  const std::vector<const SpatialIndex*> indexes = {&kd, &brute};

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
  const BruteForceIndex brute(ps);
  const std::vector<const SpatialIndex*> indexes = {&kd, &brute};
  Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    const PointId q = static_cast<PointId>(rng.uniform_index(ps.size()));
    const auto expected = test::per_point_hits(ps, ps[q], eps);
    // The kd-tree's descent scanning batches of collected leaves (exact)
    // against the same descent scanning each leaf as it is reached (a
    // neighbor budget that never fills): same order, same counters.
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
  const BruteForceIndex brute(ps);
  const std::vector<const SpatialIndex*> indexes = {&kd, &brute};
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

// ---------------------------------------------------------------------------
// Golden hits and counters per index and budget. Each row pins, for one
// index on one dataset under one budget, an FNV-1a digest of every query's
// hit ids in reported order (a separator after each query), and the summed
// distance_evals and tree_nodes. A change to the leaf scan or the descent
// that moves a hit, reorders hits or changes a charge shows up here.
// ---------------------------------------------------------------------------

struct GoldenRow {
  const char* dataset;
  const char* index;
  u64 max_neighbors;
  u64 max_nodes;
  u64 digest;
  u64 distance_evals;
  u64 tree_nodes;
};

constexpr GoldenRow kRangeGoldens[] = {
    {"uniform", "kd4", 0, 0, 0x6173f7fc5d9deb1bull, 8851, 2870},
    {"uniform", "kd4", 64, 0, 0x9ccad3778bd9714dull, 7743, 2249},
    {"uniform", "kd4", 16, 0, 0xab498f1b29db19d7ull, 1682, 483},
    {"uniform", "kd4", 4, 0, 0x446e6db61ec2614cull, 229, 255},
    {"uniform", "kd4", 1, 0, 0x1bdaab68624d2b0aull, 54, 255},
    {"uniform", "kd4", 3, 0, 0x3db4866bb79f923full, 167, 255},
    {"uniform", "kd4", 31, 0, 0x81638c5a815353bbull, 4116, 1076},
    {"uniform", "kd4", 32, 0, 0xf7dd1a6db4a25becull, 4248, 1130},
    {"uniform", "kd4", 33, 0, 0xece16f5ca136a5f2ull, 4368, 1162},
    {"uniform", "kd4", 0, 50, 0x045fe065e8138d3dull, 7752, 2156},
    {"uniform", "kd4", 0, 700, 0x6173f7fc5d9deb1bull, 8851, 2870},
    {"uniform", "kd4", 64, 200, 0x9ccad3778bd9714dull, 7743, 2249},
    {"uniform", "kd4", 8, 30, 0xd91db0c8e9670015ull, 631, 283},
    {"uniform", "kd192", 0, 0, 0x80cd2e3559923967ull, 102830, 335},
    {"uniform", "kd192", 64, 0, 0x9447ae7d12f0519dull, 75682, 277},
    {"uniform", "kd192", 16, 0, 0x5a091bed3d85b207ull, 11462, 166},
    {"uniform", "kd192", 4, 0, 0x96e7b7df54c6baacull, 2049, 153},
    {"uniform", "kd192", 1, 0, 0xebf722e65624d6ddull, 667, 153},
    {"uniform", "kd192", 3, 0, 0xae309cb3cb258573ull, 1548, 153},
    {"uniform", "kd192", 31, 0, 0x4026a1e443c6c6c7ull, 33386, 199},
    {"uniform", "kd192", 32, 0, 0x309a805a6f9169e8ull, 35118, 200},
    {"uniform", "kd192", 33, 0, 0x3c2874c569e82b07ull, 36337, 202},
    {"uniform", "kd192", 0, 50, 0x80cd2e3559923967ull, 102830, 335},
    {"uniform", "kd192", 0, 700, 0x80cd2e3559923967ull, 102830, 335},
    {"uniform", "kd192", 64, 200, 0x9447ae7d12f0519dull, 75682, 277},
    {"uniform", "kd192", 8, 30, 0xe5199564cb5a9d1cull, 4189, 154},
    {"uniform", "brute", 0, 0, 0xe7fb0dbf568b935bull, 1020000, 0},
    {"uniform", "brute", 64, 0, 0x49da4e5a5ea87030ull, 973628, 0},
    {"uniform", "brute", 16, 0, 0xaf7b8016bac4030cull, 384380, 0},
    {"uniform", "brute", 4, 0, 0x0fd08b7127b7adfaull, 97566, 0},
    {"uniform", "brute", 1, 0, 0xea73ac20a4843184ull, 16921, 0},
    {"uniform", "brute", 3, 0, 0xb45cf2035a6e251cull, 75306, 0},
    {"uniform", "brute", 31, 0, 0x1082f1a0d62cad7aull, 683793, 0},
    {"uniform", "brute", 32, 0, 0xdb3f29df1c572aa2ull, 698964, 0},
    {"uniform", "brute", 33, 0, 0x79f95311a9e01efbull, 710199, 0},
    {"uniform", "brute", 0, 50, 0xe7fb0dbf568b935bull, 1020000, 0},
    {"uniform", "brute", 0, 700, 0xe7fb0dbf568b935bull, 1020000, 0},
    {"uniform", "brute", 64, 200, 0x49da4e5a5ea87030ull, 973628, 0},
    {"uniform", "brute", 8, 30, 0x4270a8fe8e367a82ull, 193737, 0},
    {"clustered", "kd4", 0, 0, 0x5271a875794d87d4ull, 98745, 11757},
    {"clustered", "kd4", 64, 0, 0x63dd4b6a9edac53eull, 14058, 2467},
    {"clustered", "kd4", 16, 0, 0xcce5b82928b4ef1full, 2464, 617},
    {"clustered", "kd4", 4, 0, 0xd3094f82f2e00c6cull, 347, 287},
    {"clustered", "kd4", 1, 0, 0xba618d04945bb859ull, 74, 255},
    {"clustered", "kd4", 3, 0, 0xecaa6f9972228a81ull, 252, 284},
    {"clustered", "kd4", 31, 0, 0xf58b965434c50004ull, 5940, 1155},
    {"clustered", "kd4", 32, 0, 0x4ccbc8a8bee92026ull, 6210, 1182},
    {"clustered", "kd4", 33, 0, 0x1c1cab6146b3e5bbull, 6510, 1226},
    {"clustered", "kd4", 0, 50, 0x748830e55e6b0669ull, 23201, 2303},
    {"clustered", "kd4", 0, 700, 0x5271a875794d87d4ull, 98745, 11757},
    {"clustered", "kd4", 64, 200, 0x63dd4b6a9edac53eull, 14058, 2466},
    {"clustered", "kd4", 8, 30, 0x7e0d71e7211b3678ull, 888, 337},
    {"clustered", "kd192", 0, 0, 0xc630d4c2e4f493c8ull, 222672, 328},
    {"clustered", "kd192", 64, 0, 0x25f26ff448c6c174ull, 50160, 198},
    {"clustered", "kd192", 16, 0, 0xc8aca6472b3c74dbull, 11916, 168},
    {"clustered", "kd192", 4, 0, 0x652af5f19e8fd572ull, 3672, 160},
    {"clustered", "kd192", 1, 0, 0x9ff6de36b019e976ull, 693, 153},
    {"clustered", "kd192", 3, 0, 0x7be074dd60a82a0cull, 3443, 160},
    {"clustered", "kd192", 31, 0, 0x495c407bce8fdb49ull, 23618, 176},
    {"clustered", "kd192", 32, 0, 0x439d15d7dfb51f9dull, 24093, 176},
    {"clustered", "kd192", 33, 0, 0x380f262aa6f8c08dull, 24794, 176},
    {"clustered", "kd192", 0, 50, 0xc630d4c2e4f493c8ull, 222672, 328},
    {"clustered", "kd192", 0, 700, 0xc630d4c2e4f493c8ull, 222672, 328},
    {"clustered", "kd192", 64, 200, 0x25f26ff448c6c174ull, 50160, 198},
    {"clustered", "kd192", 8, 30, 0xd3235ccaefc40178ull, 5980, 161},
    {"clustered", "brute", 0, 0, 0x70f1a4cb3d45b4bcull, 1020000, 0},
    {"clustered", "brute", 64, 0, 0x1b6c67e30944059dull, 501105, 0},
    {"clustered", "brute", 16, 0, 0x7cf9a0c88abf2e80ull, 302879, 0},
    {"clustered", "brute", 4, 0, 0xc81c1da3450afc78ull, 233076, 0},
    {"clustered", "brute", 1, 0, 0xff38b2f5fa047100ull, 103696, 0},
    {"clustered", "brute", 3, 0, 0xe515957906e385d6ull, 228180, 0},
    {"clustered", "brute", 31, 0, 0x8b7b58c4b540a7b5ull, 376733, 0},
    {"clustered", "brute", 32, 0, 0x458df9369351e442ull, 381414, 0},
    {"clustered", "brute", 33, 0, 0x49c34adba9b36aedull, 387605, 0},
    {"clustered", "brute", 0, 50, 0x70f1a4cb3d45b4bcull, 1020000, 0},
    {"clustered", "brute", 0, 700, 0x70f1a4cb3d45b4bcull, 1020000, 0},
    {"clustered", "brute", 64, 200, 0x1b6c67e30944059dull, 501105, 0},
    {"clustered", "brute", 8, 30, 0xf35bbd25d4e2d138ull, 255842, 0},
};

constexpr u64 kFnvOffset = 14695981039346656037ull;

u64 fnv1a(u64 h, u64 v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

PointSet uniform_points(i64 n, int dim, double side, u64 seed) {
  Rng rng(seed);
  PointSet ps(dim);
  std::vector<double> p(static_cast<size_t>(dim));
  for (i64 i = 0; i < n; ++i) {
    for (auto& x : p) x = rng.uniform(0.0, side);
    ps.add(p);
  }
  return ps;
}

TEST(RangeQueryGoldens, PerIndexAndBudget) {
  const PointSet uniform = uniform_points(20000, 5, 30.0, 61);
  const PointSet clustered = clustered_points(20000, 10, 67);
  struct Dataset {
    const char* name;
    const PointSet& ps;
    double eps;
  };
  const Dataset datasets[] = {{"uniform", uniform, 7.0},
                              {"clustered", clustered, 6.0}};
  // (max_neighbors, max_nodes); 0 = unlimited.
  const std::pair<u64, u64> budgets[] = {
      {0, 0},  {64, 0}, {16, 0}, {4, 0},  {1, 0},    {3, 0},    {31, 0},
      {32, 0}, {33, 0}, {0, 50}, {0, 700}, {64, 200}, {8, 30}};

  std::vector<GoldenRow> got;
  for (const Dataset& data : datasets) {
    const KdTree kd4(data.ps,
                     KdTreeOptions{.leaf_size = 4, .build_threads = 1});
    const KdTree kd192(data.ps,
                       KdTreeOptions{.leaf_size = 192, .build_threads = 1});
    const BruteForceIndex brute(data.ps);
    const std::pair<const char*, const SpatialIndex*> indexes[] = {
        {"kd4", &kd4}, {"kd192", &kd192}, {"brute", &brute}};
    for (const auto& [name, index] : indexes) {
      for (const auto& [max_neighbors, max_nodes] : budgets) {
        const QueryBudget budget{.max_neighbors = max_neighbors,
                                 .max_nodes = max_nodes};
        GoldenRow row{data.name, name, max_neighbors, max_nodes, kFnvOffset,
                      0,         0};
        for (PointId q = 13; q < 20000; q += 397) {  // 51 fixed queries
          const test::QueryRun run =
              test::run_query(*index, data.ps[q], data.eps, budget);
          for (const PointId id : run.hits) {
            row.digest = fnv1a(row.digest, static_cast<u64>(id));
          }
          row.digest = fnv1a(row.digest, ~u64{0});
          row.distance_evals += run.distance_evals;
          row.tree_nodes += run.tree_nodes;
        }
        got.push_back(row);
      }
    }
  }

  EXPECT_EQ(got.size(), std::size(kRangeGoldens));
  for (size_t i = 0; i < std::min(got.size(), std::size(kRangeGoldens));
       ++i) {
    const GoldenRow& want = kRangeGoldens[i];
    const GoldenRow& row = got[i];
    const std::string where = std::string(row.dataset) + " " + row.index +
                              " max_neighbors=" +
                              std::to_string(row.max_neighbors) +
                              " max_nodes=" + std::to_string(row.max_nodes);
    EXPECT_STREQ(row.dataset, want.dataset) << where;
    EXPECT_STREQ(row.index, want.index) << where;
    EXPECT_EQ(row.max_neighbors, want.max_neighbors) << where;
    EXPECT_EQ(row.max_nodes, want.max_nodes) << where;
    EXPECT_EQ(row.digest, want.digest) << where;
    EXPECT_EQ(row.distance_evals, want.distance_evals) << where;
    EXPECT_EQ(row.tree_nodes, want.tree_nodes) << where;
  }
  if (HasFailure()) {
    // The measured table in source form, for a deliberate restatement.
    for (const GoldenRow& row : got) {
      std::printf(
          "    {\"%s\", \"%s\", %llu, %llu, 0x%016llxull, %llu, %llu},\n",
          row.dataset, row.index,
          static_cast<unsigned long long>(row.max_neighbors),
          static_cast<unsigned long long>(row.max_nodes),
          static_cast<unsigned long long>(row.digest),
          static_cast<unsigned long long>(row.distance_evals),
          static_cast<unsigned long long>(row.tree_nodes));
    }
  }
}

// ---------------------------------------------------------------------------
// Golden kNN hits and counters per index and k. Each row pins, for one
// index on one dataset at one k, an FNV-1a digest of every query's hits in
// reported order (id, then the bits of d2, a separator after each query),
// and the summed distance_evals and tree_nodes. Every dataset repeats each
// 7th point under an id past the originals, so equal-d2 ties at the k-th
// hit are decided by the id tie-break. A change to a kNN cutoff filter that
// lets a different row into the heap, or charges a row differently, shows
// up here.
// ---------------------------------------------------------------------------

struct KnnGoldenRow {
  const char* dataset;
  int dim;
  const char* index;
  u64 k;
  u64 digest;
  u64 distance_evals;
  u64 tree_nodes;
};

constexpr KnnGoldenRow kKnnGoldens[] = {
    {"uniform", 2, "kd4", 1, 0x8706c39411fa9d3aull, 457, 358},
    {"uniform", 2, "kd4", 5, 0x27401ea66fd2fc9aull, 1247, 434},
    {"uniform", 2, "kd4", 16, 0x7e9e3d51ef34d83aull, 2960, 578},
    {"uniform", 2, "kd192", 1, 0x8706c39411fa9d3aull, 10068, 169},
    {"uniform", 2, "kd192", 5, 0x27401ea66fd2fc9aull, 13176, 177},
    {"uniform", 2, "kd192", 16, 0x7e9e3d51ef34d83aull, 16603, 186},
    {"uniform", 2, "brute", 1, 0x8706c39411fa9d3aull, 288036, 0},
    {"uniform", 2, "brute", 5, 0x27401ea66fd2fc9aull, 288036, 0},
    {"uniform", 2, "brute", 16, 0x7e9e3d51ef34d83aull, 288036, 0},
    {"clustered", 2, "kd4", 1, 0x95900449aae1a849ull, 527, 368},
    {"clustered", 2, "kd4", 5, 0x77a9681aed19583cull, 1262, 441},
    {"clustered", 2, "kd4", 16, 0x21e9118f805c189cull, 3111, 627},
    {"clustered", 2, "kd192", 1, 0x95900449aae1a849ull, 10293, 171},
    {"clustered", 2, "kd192", 5, 0x77a9681aed19583cull, 12866, 175},
    {"clustered", 2, "kd192", 16, 0x21e9118f805c189cull, 19933, 200},
    {"clustered", 2, "brute", 1, 0x95900449aae1a849ull, 288036, 0},
    {"clustered", 2, "brute", 5, 0x77a9681aed19583cull, 288036, 0},
    {"clustered", 2, "brute", 16, 0x21e9118f805c189cull, 288036, 0},
    {"uniform", 10, "kd4", 1, 0x4ed8f0bc65c842d4ull, 8360, 3856},
    {"uniform", 10, "kd4", 5, 0x950c949a9a6f5295ull, 28384, 8023},
    {"uniform", 10, "kd4", 16, 0x0818199226243cc7ull, 54447, 10223},
    {"uniform", 10, "kd192", 1, 0x4ed8f0bc65c842d4ull, 113796, 286},
    {"uniform", 10, "kd192", 5, 0x950c949a9a6f5295ull, 231986, 412},
    {"uniform", 10, "kd192", 16, 0x0818199226243cc7ull, 271533, 420},
    {"uniform", 10, "brute", 1, 0x4ed8f0bc65c842d4ull, 288036, 0},
    {"uniform", 10, "brute", 5, 0x950c949a9a6f5295ull, 288036, 0},
    {"uniform", 10, "brute", 16, 0x0818199226243cc7ull, 288036, 0},
    {"clustered", 10, "kd4", 1, 0x459a10ec9ac330abull, 9139, 2477},
    {"clustered", 10, "kd4", 5, 0x5d5080733ddbe8a3ull, 23844, 4326},
    {"clustered", 10, "kd4", 16, 0xc2cdcaff66bbda41ull, 37651, 4830},
    {"clustered", 10, "kd192", 1, 0x459a10ec9ac330abull, 83997, 271},
    {"clustered", 10, "kd192", 5, 0x5d5080733ddbe8a3ull, 127286, 324},
    {"clustered", 10, "kd192", 16, 0xc2cdcaff66bbda41ull, 136609, 332},
    {"clustered", 10, "brute", 1, 0x459a10ec9ac330abull, 288036, 0},
    {"clustered", 10, "brute", 5, 0x5d5080733ddbe8a3ull, 288036, 0},
    {"clustered", 10, "brute", 16, 0xc2cdcaff66bbda41ull, 288036, 0},
    {"uniform", 64, "kd4", 1, 0x0295ed6f179791a2ull, 126825, 6345},
    {"uniform", 64, "kd4", 5, 0x55acde5b46128a94ull, 286680, 12348},
    {"uniform", 64, "kd4", 16, 0xa97d4343501f9092ull, 287626, 12348},
    {"uniform", 64, "kd192", 1, 0x0295ed6f179791a2ull, 148516, 294},
    {"uniform", 64, "kd192", 5, 0x55acde5b46128a94ull, 288036, 420},
    {"uniform", 64, "kd192", 16, 0xa97d4343501f9092ull, 288036, 420},
    {"uniform", 64, "brute", 1, 0x0295ed6f179791a2ull, 288036, 0},
    {"uniform", 64, "brute", 5, 0x55acde5b46128a94ull, 288036, 0},
    {"uniform", 64, "brute", 16, 0xa97d4343501f9092ull, 288036, 0},
    {"clustered", 64, "kd4", 1, 0x877a2e4b99495716ull, 55948, 3385},
    {"clustered", 64, "kd4", 5, 0xec0cd3a6656269c3ull, 93563, 5147},
    {"clustered", 64, "kd4", 16, 0x67c978463b1841b1ull, 98646, 5431},
    {"clustered", 64, "kd192", 1, 0x877a2e4b99495716ull, 88007, 267},
    {"clustered", 64, "kd192", 5, 0xec0cd3a6656269c3ull, 131408, 308},
    {"clustered", 64, "kd192", 16, 0x67c978463b1841b1ull, 136762, 308},
    {"clustered", 64, "brute", 1, 0x877a2e4b99495716ull, 288036, 0},
    {"clustered", 64, "brute", 5, 0xec0cd3a6656269c3ull, 288036, 0},
    {"clustered", 64, "brute", 16, 0x67c978463b1841b1ull, 288036, 0},
};

/// `ps` followed by a copy of every 7th point of it.
PointSet with_duplicates(const PointSet& ps) {
  PointSet out(ps.dim());
  const auto n = static_cast<PointId>(ps.size());
  for (PointId i = 0; i < n; ++i) out.add(ps[i]);
  for (PointId i = 0; i < n; i += 7) out.add(ps[i]);
  return out;
}

TEST(KnnQueryGoldens, PerIndexAndK) {
  std::vector<KnnGoldenRow> got;
  for (const int dim : {2, 10, 64}) {
    const PointSet uniform =
        with_duplicates(uniform_points(3000, dim, 30.0, 131));
    const PointSet clustered =
        with_duplicates(clustered_points(3000, dim, 137));
    const std::pair<const char*, const PointSet&> datasets[] = {
        {"uniform", uniform}, {"clustered", clustered}};
    for (const auto& [name, ps] : datasets) {
      const KdTree kd4(ps, KdTreeOptions{.leaf_size = 4, .build_threads = 1});
      const KdTree kd192(ps,
                         KdTreeOptions{.leaf_size = 192, .build_threads = 1});
      const BruteForceIndex brute(ps);
      const std::pair<const char*, const SpatialIndex*> indexes[] = {
          {"kd4", &kd4}, {"kd192", &kd192}, {"brute", &brute}};
      // Queries on data points (the point and its copies tie at d2 = 0) and
      // at midpoints between two of them.
      std::vector<std::vector<double>> queries;
      for (PointId q = 11; q + 1 < static_cast<PointId>(ps.size()); q += 83) {
        const auto a = ps[q];
        const auto b = ps[q + 1];
        queries.emplace_back(a.begin(), a.end());
        std::vector<double> mid(a.size());
        for (size_t d = 0; d < a.size(); ++d) mid[d] = 0.5 * (a[d] + b[d]);
        queries.push_back(std::move(mid));
      }
      for (const auto& [index_name, index] : indexes) {
        for (const u64 k : {u64{1}, u64{5}, u64{16}}) {
          KnnGoldenRow row{name, dim, index_name, k, kFnvOffset, 0, 0};
          for (const auto& q : queries) {
            std::vector<KnnHit> hits;
            WorkCounters wc;
            {
              ScopedCounters scope(&wc);
              index->knn_query(q, k, QueryBudget{}, hits);
            }
            for (const KnnHit& hit : hits) {
              row.digest = fnv1a(row.digest, static_cast<u64>(hit.id));
              row.digest = fnv1a(row.digest, std::bit_cast<u64>(hit.d2));
            }
            row.digest = fnv1a(row.digest, ~u64{0});
            row.distance_evals += wc.distance_evals;
            row.tree_nodes += wc.tree_nodes;
          }
          got.push_back(row);
        }
      }
    }
  }

  EXPECT_EQ(got.size(), std::size(kKnnGoldens));
  for (size_t i = 0; i < std::min(got.size(), std::size(kKnnGoldens)); ++i) {
    const KnnGoldenRow& want = kKnnGoldens[i];
    const KnnGoldenRow& row = got[i];
    const std::string where = std::string(row.dataset) + " d=" +
                              std::to_string(row.dim) + " " + row.index +
                              " k=" + std::to_string(row.k);
    EXPECT_STREQ(row.dataset, want.dataset) << where;
    EXPECT_EQ(row.dim, want.dim) << where;
    EXPECT_STREQ(row.index, want.index) << where;
    EXPECT_EQ(row.k, want.k) << where;
    EXPECT_EQ(row.digest, want.digest) << where;
    EXPECT_EQ(row.distance_evals, want.distance_evals) << where;
    EXPECT_EQ(row.tree_nodes, want.tree_nodes) << where;
  }
  if (HasFailure()) {
    // The measured table in source form, for a deliberate restatement.
    for (const KnnGoldenRow& row : got) {
      std::printf("    {\"%s\", %d, \"%s\", %llu, 0x%016llxull, %llu, %llu},\n",
                  row.dataset, row.dim, row.index,
                  static_cast<unsigned long long>(row.k),
                  static_cast<unsigned long long>(row.digest),
                  static_cast<unsigned long long>(row.distance_evals),
                  static_cast<unsigned long long>(row.tree_nodes));
    }
  }
}

TEST(BruteForce, SelfIncluded) {
  const PointSet ps = uniform_points(50, 3, 10.0, 13);
  BruteForceIndex brute(ps);
  std::vector<PointId> out;
  brute.range_query(ps[7], 0.0001, out);
  EXPECT_NE(std::find(out.begin(), out.end(), 7), out.end());
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
