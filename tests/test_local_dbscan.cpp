#include "core/local_dbscan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/dbscan_seq.hpp"
#include "knn/knn_backend.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/generators.hpp"
#include "util/counters.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace sdb::dbscan {
namespace {

PointSet line_points(std::initializer_list<double> xs) {
  PointSet ps(1);
  for (const double x : xs) {
    const double p[1] = {x};
    ps.add(p);
  }
  return ps;
}

TEST(LocalDbscan, OnlyLocalPointsAreMembers) {
  // One dense chain split across two partitions by index.
  const PointSet ps = line_points({0, 1, 2, 3, 4, 5, 6, 7});
  const KdTree tree(ps);
  const Partitioning part = make_partitioning(PartitionerKind::kBlock, ps, 2);
  LocalDbscanConfig cfg;
  cfg.params = {1.5, 3};
  const auto r0 = local_dbscan(ps, tree, part, 0, cfg);
  for (const auto& pc : r0.clusters) {
    for (const PointId m : pc.members) {
      EXPECT_EQ(part.owner[static_cast<size_t>(m)], 0);
    }
    for (const PointId s : pc.seeds) {
      EXPECT_NE(part.owner[static_cast<size_t>(s)], 0);
    }
  }
}

TEST(LocalDbscan, SeedsPointAcrossTheCut) {
  const PointSet ps = line_points({0, 1, 2, 3, 4, 5, 6, 7});
  const KdTree tree(ps);
  const Partitioning part = make_partitioning(PartitionerKind::kBlock, ps, 2);
  LocalDbscanConfig cfg;
  cfg.params = {1.5, 3};
  cfg.seed_strategy = SeedStrategy::kAllForeign;
  const auto r0 = local_dbscan(ps, tree, part, 0, cfg);
  ASSERT_EQ(r0.clusters.size(), 1u);
  // Point 4 (and possibly 5) are within eps of partition 0's points.
  const auto& seeds = r0.clusters[0].seeds;
  EXPECT_NE(std::find(seeds.begin(), seeds.end(), 4), seeds.end());
}

TEST(LocalDbscan, OnePerPartitionPlacesAtMostOneSeedPerPartition) {
  Rng rng(3);
  synth::UniformConfig ucfg;
  ucfg.n = 400;
  ucfg.dim = 2;
  ucfg.box_side = 20.0;
  const PointSet ps = synth::uniform_points(ucfg, rng);
  const KdTree tree(ps);
  const Partitioning part = make_partitioning(PartitionerKind::kBlock, ps, 4);
  LocalDbscanConfig cfg;
  cfg.params = {1.5, 4};
  cfg.seed_strategy = SeedStrategy::kOnePerPartition;
  for (PartitionId p = 0; p < 4; ++p) {
    const auto local = local_dbscan(ps, tree, part, p, cfg);
    for (const auto& pc : local.clusters) {
      std::vector<int> per_partition(4, 0);
      for (const PointId s : pc.seeds) {
        ++per_partition[static_cast<size_t>(part.owner[static_cast<size_t>(s)])];
      }
      for (const int c : per_partition) EXPECT_LE(c, 1);
    }
  }
}

TEST(LocalDbscan, AllForeignSeedsAreDeduplicated) {
  const PointSet ps = line_points({0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5});
  const KdTree tree(ps);
  const Partitioning part = make_partitioning(PartitionerKind::kBlock, ps, 2);
  LocalDbscanConfig cfg;
  cfg.params = {1.2, 3};
  cfg.seed_strategy = SeedStrategy::kAllForeign;
  const auto r0 = local_dbscan(ps, tree, part, 0, cfg);
  for (const auto& pc : r0.clusters) {
    auto seeds = pc.seeds;
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  }
}

TEST(LocalDbscan, PointsSharedByTwoClustersOfOnePartition) {
  // Two vertical columns of core points 1.8 apart (eps 1, minpts 4), so no
  // core point reaches the other column. Three non-core points sit halfway
  // between them, each within eps of one point of either column: b = (0.9, 0)
  // is local to partition 0, f1 = (0.9, 2) and f2 = (0.9, 4) belong to
  // partition 1. b has the lowest id, so the sweep first marks it noise.
  PointSet ps(2);
  auto add = [&ps](double x, double y) {
    const double p[2] = {x, y};
    ps.add(p);
  };
  add(0.9, 0.0);  // b, id 0
  for (int i = 0; i <= 8; ++i) add(0.0, 0.5 * i);  // column A, ids 1-9
  for (int i = 0; i <= 8; ++i) add(1.8, 0.5 * i);  // column B, ids 10-18
  add(0.9, 2.0);  // f1, id 19
  add(0.9, 4.0);  // f2, id 20
  Partitioning part;
  part.num_partitions = 2;
  part.owner.assign(ps.size(), 0);
  part.owner[19] = part.owner[20] = 1;
  part.parts.resize(2);
  for (PointId i = 0; i < 19; ++i) part.parts[0].push_back(i);
  part.parts[1] = {19, 20};
  const KdTree tree(ps);
  LocalDbscanConfig cfg;
  cfg.params = {1.0, 4};

  auto sorted = [](std::vector<PointId> ids) {
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  std::vector<PointId> column_a;
  std::vector<PointId> column_b;
  for (PointId i = 1; i <= 9; ++i) column_a.push_back(i);
  for (PointId i = 10; i <= 18; ++i) column_b.push_back(i);
  std::vector<PointId> a_and_b = column_a;
  a_and_b.push_back(0);

  for (const SeedStrategy strategy :
       {SeedStrategy::kAllForeign, SeedStrategy::kOnePerPartition}) {
    SCOPED_TRACE(seed_strategy_name(strategy));
    cfg.seed_strategy = strategy;
    const auto r = local_dbscan(ps, tree, part, 0, cfg);
    ASSERT_EQ(r.clusters.size(), 2u);
    // b joins the first cluster only, and the cleanup drops it from noise.
    EXPECT_EQ(sorted(r.clusters[0].members), sorted(a_and_b));
    EXPECT_EQ(sorted(r.clusters[1].members), column_b);
    EXPECT_TRUE(r.noise.empty());
    EXPECT_EQ(r.core_points.size(), 18u);
    for (const PartialCluster& pc : r.clusters) {
      if (strategy == SeedStrategy::kAllForeign) {
        EXPECT_EQ(sorted(pc.seeds), (std::vector<PointId>{19, 20}));
      } else {
        ASSERT_EQ(pc.seeds.size(), 1u);
        EXPECT_EQ(part.owner[static_cast<size_t>(pc.seeds[0])], 1);
      }
    }
  }
}

TEST(LocalDbscan, CorePointsAreGloballyExact) {
  // Core-ness must match sequential DBSCAN exactly: neighborhoods come from
  // the broadcast index over ALL points, not just the partition.
  Rng rng(7);
  synth::UniformConfig ucfg;
  ucfg.n = 300;
  ucfg.dim = 2;
  ucfg.box_side = 15.0;
  const PointSet ps = synth::uniform_points(ucfg, rng);
  const KdTree tree(ps);
  const DbscanParams params{1.0, 4};
  const auto seq = dbscan_sequential(ps, tree, params);
  std::vector<char> seq_core(ps.size(), 0);
  for (const PointId c : seq.core_points) seq_core[static_cast<size_t>(c)] = 1;

  const Partitioning part = make_partitioning(PartitionerKind::kBlock, ps, 3);
  LocalDbscanConfig cfg;
  cfg.params = params;
  std::vector<char> par_core(ps.size(), 0);
  for (PartitionId p = 0; p < 3; ++p) {
    const auto local = local_dbscan(ps, tree, part, p, cfg);
    for (const PointId c : local.core_points) {
      par_core[static_cast<size_t>(c)] = 1;
    }
  }
  EXPECT_EQ(seq_core, par_core);
}

TEST(LocalDbscan, EveryLocalPointAccountedFor) {
  // Each local point is a member of exactly one partial cluster OR noise.
  Rng rng(9);
  synth::UniformConfig ucfg;
  ucfg.n = 500;
  ucfg.dim = 3;
  ucfg.box_side = 25.0;
  const PointSet ps = synth::uniform_points(ucfg, rng);
  const KdTree tree(ps);
  const Partitioning part = make_partitioning(PartitionerKind::kBlock, ps, 4);
  LocalDbscanConfig cfg;
  cfg.params = {1.8, 4};
  for (PartitionId p = 0; p < 4; ++p) {
    const auto local = local_dbscan(ps, tree, part, p, cfg);
    std::vector<int> seen(ps.size(), 0);
    for (const auto& pc : local.clusters) {
      for (const PointId m : pc.members) ++seen[static_cast<size_t>(m)];
    }
    for (const PointId q : local.noise) ++seen[static_cast<size_t>(q)];
    for (const PointId id : part.parts[static_cast<size_t>(p)]) {
      EXPECT_EQ(seen[static_cast<size_t>(id)], 1) << "point " << id;
    }
  }
}

TEST(LocalDbscan, SinglePartitionEqualsSequential) {
  // With one partition there are no SEEDs and the result must match
  // Algorithm 1 exactly (same counts; labels up to renaming).
  Rng rng(13);
  synth::GaussianMixtureConfig gcfg;
  gcfg.n = 400;
  gcfg.dim = 2;
  gcfg.clusters = 3;
  gcfg.sigma = 0.5;
  gcfg.box_side = 50.0;
  const PointSet ps = synth::gaussian_clusters(gcfg, rng);
  const KdTree tree(ps);
  const DbscanParams params{1.0, 4};
  const auto seq = dbscan_sequential(ps, tree, params);
  const Partitioning part = make_partitioning(PartitionerKind::kBlock, ps, 1);
  LocalDbscanConfig cfg;
  cfg.params = params;
  const auto local = local_dbscan(ps, tree, part, 0, cfg);
  EXPECT_EQ(local.clusters.size(), seq.clustering.num_clusters);
  EXPECT_EQ(local.noise.size(), seq.clustering.noise_count());
  EXPECT_EQ(local.core_points.size(), seq.core_points.size());
  for (const auto& pc : local.clusters) EXPECT_TRUE(pc.seeds.empty());
}

TEST(LocalDbscan, PartialClusterUidsUniqueAndDecodable) {
  const PointSet ps = line_points({0, 1, 2, 10, 11, 12, 20, 21, 22});
  const KdTree tree(ps);
  const Partitioning part = make_partitioning(PartitionerKind::kBlock, ps, 3);
  LocalDbscanConfig cfg;
  cfg.params = {1.5, 2};
  std::vector<u64> uids;
  for (PartitionId p = 0; p < 3; ++p) {
    const auto local = local_dbscan(ps, tree, part, p, cfg);
    for (const auto& pc : local.clusters) {
      EXPECT_EQ(pc.partition, p);
      EXPECT_EQ(pc.uid >> 32, static_cast<u64>(static_cast<u32>(p)));
      uids.push_back(pc.uid);
    }
  }
  std::sort(uids.begin(), uids.end());
  EXPECT_EQ(std::adjacent_find(uids.begin(), uids.end()), uids.end());
}

TEST(LocalDbscan, FragmentationGrowsWithPartitions) {
  // The paper's Figure 6 observation: more partitions -> more partial
  // clusters.
  Rng rng(17);
  synth::UniformConfig ucfg;
  ucfg.n = 1500;
  ucfg.dim = 2;
  ucfg.box_side = 30.0;
  const PointSet ps = synth::uniform_points(ucfg, rng);
  const KdTree tree(ps);
  LocalDbscanConfig cfg;
  cfg.params = {1.0, 4};
  auto total_partial = [&](u32 parts) {
    const Partitioning part =
        make_partitioning(PartitionerKind::kBlock, ps, parts);
    u64 total = 0;
    for (u32 p = 0; p < parts; ++p) {
      total += local_dbscan(ps, tree, part, static_cast<PartitionId>(p), cfg)
                   .clusters.size();
    }
    return total;
  };
  const u64 m1 = total_partial(1);
  const u64 m8 = total_partial(8);
  EXPECT_GT(m8, m1);
}

TEST(LocalDbscan, FrontierDedupBoundsQueueOnDenseBlob) {
  // Regression for the frontier duplicate blow-up: on a dense blob every
  // neighborhood overlaps almost every other, so enqueuing each neighbor
  // unconditionally pushed the same ids O(minpts) times each and the
  // frontier ballooned far past n. With push-time dedup, each local point
  // enters the frontier at most once per cluster: the high-water mark is
  // bounded by n and total queue traffic is O(n), not O(n * avg_degree).
  Rng rng(21);
  synth::GaussianMixtureConfig gcfg;
  gcfg.n = 600;
  gcfg.dim = 2;
  gcfg.clusters = 1;
  gcfg.sigma = 0.8;
  gcfg.box_side = 10.0;
  const PointSet ps = synth::gaussian_clusters(gcfg, rng);
  const KdTree tree(ps);
  const DbscanParams params{2.0, 8};
  const Partitioning part = make_partitioning(PartitionerKind::kBlock, ps, 1);
  LocalDbscanConfig cfg;
  cfg.params = params;

  WorkCounters wc;
  LocalClusterResult local;
  {
    ScopedCounters scope(&wc);
    local = local_dbscan(ps, tree, part, 0, cfg);
  }
  const u64 n = ps.size();
  // The blob is dense enough that the old code's peak was ~sum of
  // neighborhood sizes (hundreds of times n here); these bounds fail loudly
  // if the dedup regresses.
  EXPECT_LE(wc.frontier_peak, n);
  EXPECT_GT(wc.frontier_peak, 0u);
  EXPECT_LE(wc.queue_ops, 4 * n);  // pushes + pops, <= 2 per id per cluster

  // And the dedup must not change the clustering itself.
  const auto seq = dbscan_sequential(ps, tree, params);
  EXPECT_EQ(local.clusters.size(), seq.clustering.num_clusters);
  EXPECT_EQ(local.noise.size(), seq.clustering.noise_count());
  EXPECT_EQ(local.core_points.size(), seq.core_points.size());
}

TEST(LocalDbscan, DeterministicAcrossRepeatedRuns) {
  // members/seeds/noise are contract output (SEEDs drive the cross-partition
  // merge): repeated runs must produce byte-identical vectors, including
  // order. Guards the enqueue-dedup rewrite preserving first-occurrence
  // expansion order.
  Rng rng(23);
  synth::GaussianMixtureConfig gcfg;
  gcfg.n = 500;
  gcfg.dim = 2;
  gcfg.clusters = 2;
  gcfg.sigma = 0.6;
  gcfg.box_side = 20.0;
  const PointSet ps = synth::gaussian_clusters(gcfg, rng);
  const KdTree tree(ps);
  const Partitioning part = make_partitioning(PartitionerKind::kBlock, ps, 3);
  LocalDbscanConfig cfg;
  cfg.params = {1.5, 5};
  for (PartitionId p = 0; p < 3; ++p) {
    const auto first = local_dbscan(ps, tree, part, p, cfg);
    const auto again = local_dbscan(ps, tree, part, p, cfg);
    ASSERT_EQ(first.clusters.size(), again.clusters.size());
    for (size_t c = 0; c < first.clusters.size(); ++c) {
      EXPECT_EQ(first.clusters[c].uid, again.clusters[c].uid);
      EXPECT_EQ(first.clusters[c].members, again.clusters[c].members);
      EXPECT_EQ(first.clusters[c].seeds, again.clusters[c].seeds);
    }
    EXPECT_EQ(first.noise, again.noise);
    EXPECT_EQ(first.core_points, again.core_points);
  }
}

// FNV-1a over a result's fields in order: partition; each cluster's uid,
// members and seeds; core_points; noise. Digests the fields rather than the
// wire bytes, so a codec layout change cannot move it.
u64 result_digest(u64 h, const LocalClusterResult& r) {
  auto fold_ids = [&h](const std::vector<PointId>& ids) {
    h = fnv1a_value(h, static_cast<u64>(ids.size()));
    h = fnv1a(ids.data(), ids.size() * sizeof(PointId), h);
  };
  h = fnv1a_value(h, r.partition);
  for (const PartialCluster& pc : r.clusters) {
    h = fnv1a_value(h, pc.uid);
    fold_ids(pc.members);
    fold_ids(pc.seeds);
  }
  fold_ids(r.core_points);
  fold_ids(r.noise);
  return h;
}

struct Golden {
  u64 digest;
  u64 distance_evals;
  u64 tree_nodes;
  u64 hash_ops;
  u64 queue_ops;
  u64 points_processed;
  u64 seed_ops;
  u64 frontier_peak;
};

void expect_golden(const Golden& want, u64 digest, const WorkCounters& wc) {
  EXPECT_EQ(digest, want.digest);
  EXPECT_EQ(wc.distance_evals, want.distance_evals);
  EXPECT_EQ(wc.tree_nodes, want.tree_nodes);
  EXPECT_EQ(wc.hash_ops, want.hash_ops);
  EXPECT_EQ(wc.queue_ops, want.queue_ops);
  EXPECT_EQ(wc.points_processed, want.points_processed);
  EXPECT_EQ(wc.seed_ops, want.seed_ops);
  EXPECT_EQ(wc.frontier_peak, want.frontier_peak);
}

TEST(LocalDbscan, GoldenResultsAndCountersPerBackend) {
  // Pins both executor kernels — the exact range-query source and the kNN
  // eps-graph source — to recorded member/seed/noise order and work
  // counters, summed over every partition of each run. Any refactor of the
  // shared sweep must leave every value unchanged.
  {
    Rng rng(31);
    const PointSet ps = synth::blobs_2d(4000, 6, 0.04, 300, rng);
    const KdTree tree(ps);
    LocalDbscanConfig cfg;
    cfg.params = {0.03, 6};
    struct Case {
      PartitionerKind partitioner;
      SeedStrategy strategy;
      Golden want;
      QueryBudget budget = {};
    };
    const Case cases[] = {
        {PartitionerKind::kBlock, SeedStrategy::kAllForeign,
         {16236602016041878037ull, 1706400, 10291, 737895, 48910, 4300, 20503,
          394}},
        {PartitionerKind::kBlock, SeedStrategy::kOnePerPartition,
         {8546718667956331759ull, 1706400, 10291, 717392, 48910, 4300, 20503,
          394}},
        {PartitionerKind::kRandom, SeedStrategy::kAllForeign,
         {2210995881594213048ull, 1706400, 10291, 738920, 49140, 4300, 20639,
          267}},
        {PartitionerKind::kRandom, SeedStrategy::kOnePerPartition,
         {9930683129439682314ull, 1706400, 10291, 718281, 49140, 4300, 20639,
          267}},
        {PartitionerKind::kKdSplit, SeedStrategy::kAllForeign,
         {15512154076714684969ull, 1706400, 10291, 589888, 11914, 4300, 1890,
          272}},
        {PartitionerKind::kKdSplit, SeedStrategy::kOnePerPartition,
         {2133173307550461048ull, 1706400, 10291, 587998, 11914, 4300, 1890,
          272}},
        {PartitionerKind::kGrid, SeedStrategy::kAllForeign,
         {4537282393945122227ull, 1706400, 10291, 579142, 10916, 4300, 1399,
          310}},
        {PartitionerKind::kGrid, SeedStrategy::kOnePerPartition,
         {15566479648013115457ull, 1706400, 10291, 577743, 10916, 4300, 1399,
          310}},
        // A budget that truncates most neighbourhoods: core tests and the
        // enqueued rows both come from the truncated hits.
        {PartitionerKind::kKdSplit, SeedStrategy::kAllForeign,
         {14658881486954721383ull, 201997, 8635, 59981, 8158, 4300, 2054, 30},
         QueryBudget{.max_neighbors = 8}},
        {PartitionerKind::kRandom, SeedStrategy::kOnePerPartition,
         {292189693828583887ull, 201997, 8635, 75269, 47500, 4300, 22658, 20},
         QueryBudget{.max_neighbors = 8}},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string("exact ") + partitioner_name(c.partitioner) +
                   " " + seed_strategy_name(c.strategy) +
                   " max_neighbors " + std::to_string(c.budget.max_neighbors));
      const Partitioning part = make_partitioning(c.partitioner, ps, 6);
      cfg.seed_strategy = c.strategy;
      cfg.budget = c.budget;
      WorkCounters wc;
      u64 digest = 1469598103934665603ull;
      {
        ScopedCounters scope(&wc);
        for (PartitionId p = 0; p < 6; ++p) {
          digest = result_digest(digest, local_dbscan(ps, tree, part, p, cfg));
        }
      }
      expect_golden(c.want, digest, wc);
    }
  }
  {
    Rng rng(37);
    synth::EmbeddingConfig gen;
    gen.n = 1500;
    gen.dim = 64;
    const PointSet ps = synth::embedding_clusters(gen, rng);
    knn::KnnGraphConfig graph_cfg;
    graph_cfg.k = 16;
    graph_cfg.build = knn::KnnGraphConfig::Build::kExact;
    const knn::KnnEpsGraph eps = knn::KnnEpsGraph::build(
        knn::build_knn_graph(ps, graph_cfg),
        DbscanParams{synth::embedding_suggested_eps(gen), 5});
    struct Case {
      SeedStrategy strategy;
      Golden want;
      PartitionerKind partitioner = PartitionerKind::kRandom;
    };
    const Case cases[] = {
        {SeedStrategy::kAllForeign,
         {11357603239245262658ull, 0, 0, 39638, 15436, 1500, 6673, 41}},
        {SeedStrategy::kOnePerPartition,
         {1164634976710059942ull, 0, 0, 32965, 15436, 1500, 6673, 41}},
        {SeedStrategy::kAllForeign,
         {15021591359552846223ull, 0, 0, 28469, 3172, 1500, 148, 81},
         PartitionerKind::kKdSplit},
        {SeedStrategy::kOnePerPartition,
         {9693668361010606979ull, 0, 0, 28321, 3172, 1500, 148, 81},
         PartitionerKind::kKdSplit},
        {SeedStrategy::kAllForeign,
         {9279240495041744519ull, 0, 0, 30581, 4912, 1500, 1050, 86},
         PartitionerKind::kGrid},
        {SeedStrategy::kOnePerPartition,
         {12018692599184422706ull, 0, 0, 29531, 4912, 1500, 1050, 86},
         PartitionerKind::kGrid},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string("knn ") + partitioner_name(c.partitioner) +
                   " " + seed_strategy_name(c.strategy));
      const Partitioning part = make_partitioning(c.partitioner, ps, 5);
      WorkCounters wc;
      u64 digest = 1469598103934665603ull;
      {
        ScopedCounters scope(&wc);
        for (PartitionId p = 0; p < 5; ++p) {
          digest = result_digest(
              digest, knn::local_knn_dbscan(
                          eps, part, p, knn::LocalKnnDbscanConfig{c.strategy}));
        }
      }
      expect_golden(c.want, digest, wc);
    }
  }
}

TEST(LocalDbscanDeath, BadPartitionAborts) {
  const PointSet ps = line_points({0, 1});
  const KdTree tree(ps);
  const Partitioning part = make_partitioning(PartitionerKind::kBlock, ps, 2);
  LocalDbscanConfig cfg;
  EXPECT_DEATH(local_dbscan(ps, tree, part, 5, cfg), "partition id");
}

}  // namespace
}  // namespace sdb::dbscan
