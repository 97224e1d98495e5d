#include "core/merge.hpp"

#include <gtest/gtest.h>

#include "core/dbscan_seq.hpp"
#include "core/local_dbscan.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/generators.hpp"
#include "util/rng.hpp"

namespace sdb::dbscan {
namespace {

// Build a LocalClusterResult by hand.
LocalClusterResult make_local(PartitionId partition,
                              std::vector<PartialCluster> clusters,
                              std::vector<PointId> cores,
                              std::vector<PointId> noise = {}) {
  LocalClusterResult r;
  r.partition = partition;
  r.clusters = std::move(clusters);
  r.core_points = std::move(cores);
  r.noise = std::move(noise);
  return r;
}

PartialCluster make_pc(PartitionId part, u32 idx, std::vector<PointId> members,
                       std::vector<PointId> seeds) {
  PartialCluster pc;
  pc.partition = part;
  pc.uid = PartialCluster::make_uid(part, idx);
  pc.members = std::move(members);
  pc.seeds = std::move(seeds);
  return pc;
}

TEST(Merge, PaperFigure4Example) {
  // Figure 4: C[0] in partition 0 (range 0-2499) holds seed 3000; C[5] in
  // partition 1 contains 3000 as a regular element -> one merged cluster.
  auto local0 = make_local(
      0, {make_pc(0, 0, {0, 5, 6, 11, 223, 2300, 23, 45, 1000}, {3000})},
      {0, 5, 6});
  auto local1 = make_local(
      1, {make_pc(1, 5, {3000, 2501, 4200, 2800, 2600, 3401, 3678}, {})},
      {3000, 2501});
  MergeOptions opt;
  opt.strategy = MergeStrategy::kPaperSinglePass;
  const auto merged = merge_partial_clusters({local0, local1}, 5000, opt);
  EXPECT_EQ(merged.clustering.num_clusters, 1u);
  EXPECT_EQ(merged.clustering.labels[0], merged.clustering.labels[3000]);
  EXPECT_EQ(merged.clustering.labels[2300], merged.clustering.labels[3678]);
  EXPECT_EQ(merged.stats.merges, 1u);
  EXPECT_EQ(merged.stats.partial_clusters, 2u);
}

TEST(Merge, NoSeedsNoMerges) {
  auto local0 = make_local(0, {make_pc(0, 0, {0, 1}, {})}, {0, 1});
  auto local1 = make_local(1, {make_pc(1, 0, {2, 3}, {})}, {2, 3});
  for (const auto strategy :
       {MergeStrategy::kPaperSinglePass, MergeStrategy::kUnionFind}) {
    MergeOptions opt;
    opt.strategy = strategy;
    const auto merged = merge_partial_clusters({local0, local1}, 4, opt);
    EXPECT_EQ(merged.clustering.num_clusters, 2u);
    EXPECT_EQ(merged.stats.merges, 0u);
  }
}

TEST(Merge, UnclaimedBorderSeedAdopted) {
  // Seed 5 is noise in partition 1 (cross-partition border point): the
  // cluster holding the seed must adopt it.
  auto local0 = make_local(0, {make_pc(0, 0, {0, 1, 2}, {5})}, {0, 1, 2});
  auto local1 = make_local(1, {}, {}, {5, 6});
  for (const auto strategy :
       {MergeStrategy::kPaperSinglePass, MergeStrategy::kUnionFind}) {
    MergeOptions opt;
    opt.strategy = strategy;
    const auto merged = merge_partial_clusters({local0, local1}, 8, opt);
    EXPECT_EQ(merged.clustering.labels[5], merged.clustering.labels[0]);
    EXPECT_EQ(merged.stats.border_claims, 1u);
    EXPECT_EQ(merged.clustering.labels[6], kNoise);
  }
}

TEST(Merge, BorderClaimGoesToLowerUid) {
  // Two clusters claim the same unclaimed foreign point: the first claim in
  // uid order wins, whatever order the results arrive in.
  auto a = make_local(0, {make_pc(0, 0, {0, 1}, {20})}, {0, 1});
  auto b = make_local(1, {make_pc(1, 0, {10, 11}, {20})}, {10, 11});
  auto c = make_local(2, {}, {}, {20});
  for (const auto strategy :
       {MergeStrategy::kPaperSinglePass, MergeStrategy::kUnionFind}) {
    MergeOptions opt;
    opt.strategy = strategy;
    for (const auto& locals : {std::vector{a, b, c}, std::vector{c, b, a}}) {
      const auto merged = merge_partial_clusters(locals, 30, opt);
      EXPECT_EQ(merged.clustering.labels[20], merged.clustering.labels[0]);
      EXPECT_NE(merged.clustering.labels[20], merged.clustering.labels[10]);
      EXPECT_EQ(merged.stats.border_claims, 1u);
    }
  }
}

TEST(Merge, UnionFindClosesChains) {
  // A -> B -> C chain: A's seed reaches B, B's seed reaches C. Union-find
  // must produce ONE cluster even though A and C never reference each other.
  auto a = make_local(0, {make_pc(0, 0, {0, 1}, {10})}, {0, 1});
  auto b = make_local(1, {make_pc(1, 0, {10, 11}, {20})}, {10, 11});
  auto c = make_local(2, {make_pc(2, 0, {20, 21}, {})}, {20, 21});
  MergeOptions opt;
  opt.strategy = MergeStrategy::kUnionFind;
  const auto merged = merge_partial_clusters({a, b, c}, 30, opt);
  EXPECT_EQ(merged.clustering.num_clusters, 1u);
  EXPECT_EQ(merged.clustering.labels[0], merged.clustering.labels[21]);
}

TEST(Merge, PaperSinglePassMissesAbsorbedClustersSeeds) {
  // The documented Algorithm 4 gap: once B is absorbed by A, B's own seeds
  // are never processed. Order the partial clusters so A absorbs B before
  // B's turn; C must stay separate under the paper pass but fuse under
  // union-find.
  auto a = make_local(0, {make_pc(0, 0, {0, 1}, {10})}, {0, 1});
  auto b = make_local(1, {make_pc(1, 0, {10, 11}, {20})}, {10, 11});
  auto c = make_local(2, {make_pc(2, 0, {20, 21}, {})}, {20, 21});
  MergeOptions paper;
  paper.strategy = MergeStrategy::kPaperSinglePass;
  const auto merged = merge_partial_clusters({a, b, c}, 30, paper);
  // A+B merged; C separate because B (absorbed, 'finished') never digs out
  // its seed 20.
  EXPECT_EQ(merged.clustering.num_clusters, 2u);
  EXPECT_EQ(merged.clustering.labels[0], merged.clustering.labels[10]);
  EXPECT_NE(merged.clustering.labels[0], merged.clustering.labels[20]);
}

TEST(Merge, PaperSinglePassOverMergesOnBorderSeeds) {
  // The second Algorithm 4 gap: seed 10 is a NON-core border member of B.
  // Sequential DBSCAN keeps A and B separate (border points do not connect
  // clusters); the paper pass merges them, union-find does not.
  auto a = make_local(0, {make_pc(0, 0, {0, 1}, {10})}, {0, 1});
  auto b = make_local(1, {make_pc(1, 0, {10, 11, 12}, {})}, {11, 12});
  MergeOptions paper;
  paper.strategy = MergeStrategy::kPaperSinglePass;
  const auto paper_merged = merge_partial_clusters({a, b}, 20, paper);
  EXPECT_EQ(paper_merged.clustering.num_clusters, 1u);

  MergeOptions uf;
  uf.strategy = MergeStrategy::kUnionFind;
  const auto uf_merged = merge_partial_clusters({a, b}, 20, uf);
  EXPECT_EQ(uf_merged.clustering.num_clusters, 2u);
  // The border point stays with its own partition's cluster.
  EXPECT_EQ(uf_merged.clustering.labels[10], uf_merged.clustering.labels[11]);
}

TEST(Merge, MinSizeFilterDropsSmallClusters) {
  // The filtered cluster's seeds go with it: they are never examined, so
  // the foreign noise point only it reached stays noise.
  auto local0 = make_local(
      0, {make_pc(0, 0, {0, 1, 2, 3}, {8}), make_pc(0, 1, {7}, {8, 9})},
      {0, 1, 2, 3, 7});
  auto local1 = make_local(1, {}, {}, {8, 9});
  for (const auto strategy :
       {MergeStrategy::kPaperSinglePass, MergeStrategy::kUnionFind}) {
    MergeOptions opt;
    opt.strategy = strategy;
    EXPECT_EQ(merge_partial_clusters({local0, local1}, 10, opt)
                  .stats.seeds_examined,
              3u);
    opt.min_partial_cluster_size = 2;
    const auto merged = merge_partial_clusters({local0, local1}, 10, opt);
    EXPECT_EQ(merged.clustering.num_clusters, 1u);
    EXPECT_EQ(merged.clustering.labels[7], kNoise);
    EXPECT_EQ(merged.clustering.labels[8], merged.clustering.labels[0]);
    EXPECT_EQ(merged.clustering.labels[9], kNoise);
    EXPECT_EQ(merged.stats.filtered_partial_clusters, 1u);
    EXPECT_EQ(merged.stats.seeds_examined, 1u);
  }
}

TEST(Merge, StatsReportKAndM) {
  auto local0 = make_local(
      0, {make_pc(0, 0, {0, 1, 2}, {}), make_pc(0, 1, {5, 6}, {})},
      {0, 1, 2, 5, 6});
  const auto merged = merge_partial_clusters({local0}, 10, {});
  EXPECT_EQ(merged.stats.partial_clusters, 2u);
  EXPECT_EQ(merged.stats.max_partial_cluster_size, 3u);
}

TEST(Merge, EmptyInput) {
  const auto merged = merge_partial_clusters({}, 5, {});
  EXPECT_EQ(merged.clustering.num_clusters, 0u);
  EXPECT_EQ(merged.clustering.labels.size(), 5u);
  EXPECT_EQ(merged.clustering.noise_count(), 5u);
}

TEST(Merge, CountersPopulated) {
  auto local0 = make_local(0, {make_pc(0, 0, {0, 1, 2}, {5})}, {0, 1, 2});
  auto local1 = make_local(1, {make_pc(1, 0, {5, 6}, {})}, {5, 6});
  const auto merged = merge_partial_clusters({local0, local1}, 8, {});
  EXPECT_GT(merged.counters.merge_ops, 0u);
}

/// Randomized partial-cluster topology. Points are laid out in
/// per-partition blocks; each block ends in a small pool of unclaimed
/// (local-noise) ids so seeds can hit the border-adoption path.
struct FixtureConfig {
  u32 partitions = 4;
  bool chain = false;            ///< a merge chain through every partition
  double core_fraction = 0.6;    ///< chance a member is core
  double dup_seed_chance = 0.0;  ///< chance a seed repeats the previous one
};

constexpr u32 kFixtureClusters = 3;  ///< per partition
constexpr u32 kFixtureMaxSize = 5;   ///< member count drawn from [1, max]
constexpr u32 kFixtureSeeds = 4;     ///< per cluster
constexpr u32 kNoisePool = 6;

std::vector<LocalClusterResult> make_fixture(const FixtureConfig& cfg,
                                             Rng& rng, u64* num_points) {
  const u32 block = kFixtureClusters * kFixtureMaxSize + kNoisePool;
  *num_points = static_cast<u64>(cfg.partitions) * block;
  std::vector<LocalClusterResult> locals;

  // Pass 1: members + core flags (so pass 2 can aim seeds at known ids).
  for (u32 p = 0; p < cfg.partitions; ++p) {
    LocalClusterResult local;
    local.partition = static_cast<PartitionId>(p);
    const PointId base = static_cast<PointId>(p) * block;
    for (u32 c = 0; c < kFixtureClusters; ++c) {
      const u32 size = 1 + static_cast<u32>(rng.uniform_index(kFixtureMaxSize));
      PartialCluster pc;
      pc.partition = local.partition;
      pc.uid = PartialCluster::make_uid(local.partition, c);
      for (u32 k = 0; k < size; ++k) {
        const PointId id = base + c * kFixtureMaxSize + k;
        pc.members.push_back(id);
        if (rng.chance(cfg.core_fraction)) local.core_points.push_back(id);
      }
      local.clusters.push_back(std::move(pc));
    }
    for (u32 k = 0; k < kNoisePool; ++k) {
      local.noise.push_back(base + block - kNoisePool + k);
    }
    locals.push_back(std::move(local));
  }

  // Pass 2: seeds aimed at random foreign partitions — at members (core or
  // border, whatever pass 1 rolled) or at the unclaimed noise pool — with
  // optional duplicates and an optional chain cluster(p, 0) -> member of
  // cluster(p+1, 0).
  for (u32 p = 0; p < cfg.partitions; ++p) {
    for (u32 c = 0; c < kFixtureClusters; ++c) {
      auto& pc = locals[p].clusters[c];
      for (u32 s = 0; s < kFixtureSeeds; ++s) {
        if (!pc.seeds.empty() && rng.chance(cfg.dup_seed_chance)) {
          pc.seeds.push_back(pc.seeds.back());
          continue;
        }
        u32 q = static_cast<u32>(rng.uniform_index(cfg.partitions - 1));
        if (q >= p) ++q;  // any partition but our own
        const PointId q_base = static_cast<PointId>(q) * block;
        if (rng.chance(0.2)) {
          pc.seeds.push_back(q_base + block - kNoisePool +
                             static_cast<PointId>(
                                 rng.uniform_index(kNoisePool)));
        } else {
          const auto& target = locals[q].clusters[static_cast<size_t>(
              rng.uniform_index(kFixtureClusters))];
          pc.seeds.push_back(target.members[static_cast<size_t>(
              rng.uniform_index(target.members.size()))]);
        }
      }
      if (cfg.chain && c == 0) {
        const u32 q = (p + 1) % cfg.partitions;
        pc.seeds.push_back(locals[q].clusters[0].members.front());
      }
    }
  }
  return locals;
}

/// Labels, every MergeStats field and the charged merge work, byte for byte.
void expect_identical(const MergeResult& a, const MergeResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.clustering.labels, b.clustering.labels) << what;
  EXPECT_EQ(a.clustering.num_clusters, b.clustering.num_clusters) << what;
  EXPECT_EQ(a.stats.partial_clusters, b.stats.partial_clusters) << what;
  EXPECT_EQ(a.stats.filtered_partial_clusters,
            b.stats.filtered_partial_clusters)
      << what;
  EXPECT_EQ(a.stats.max_partial_cluster_size, b.stats.max_partial_cluster_size)
      << what;
  EXPECT_EQ(a.stats.seeds_examined, b.stats.seeds_examined) << what;
  EXPECT_EQ(a.stats.merges, b.stats.merges) << what;
  EXPECT_EQ(a.stats.border_claims, b.stats.border_claims) << what;
  EXPECT_EQ(a.counters.merge_ops, b.counters.merge_ops) << what;
}

// Property (the idempotent-accumulator contract's other half): the driver
// merge must not care in which order partial results arrive. Task retries,
// speculative duplicates and scheduling jitter all permute accumulator
// arrival order, so any order sensitivity here would turn a recovered run
// into a silently different clustering. The uid sort makes the output
// byte-identical, label ids included.
TEST(Merge, OrderInvariantAcrossArrivalPermutations) {
  struct Input {
    std::string name;
    std::vector<LocalClusterResult> locals;
    u64 num_points = 0;
    u64 min_size = 0;
  };
  std::vector<Input> inputs;

  // The real pipeline on gaussian data.
  Rng data_rng(321);
  synth::GaussianMixtureConfig gcfg;
  gcfg.n = 600;
  gcfg.dim = 2;
  gcfg.clusters = 4;
  gcfg.sigma = 0.4;
  gcfg.noise_fraction = 0.08;
  gcfg.box_side = 35.0;
  const PointSet ps = synth::gaussian_clusters(gcfg, data_rng);
  const DbscanParams params{0.8, 5};
  const KdTree tree(ps);

  constexpr u32 kPartitions = 6;
  const Partitioning partitioning =
      make_partitioning(PartitionerKind::kBlock, ps, kPartitions, 77);
  LocalDbscanConfig local_cfg;
  local_cfg.params = params;
  local_cfg.seed_strategy = SeedStrategy::kAllForeign;
  Input real{"gaussian", {}, ps.size(), 0};
  for (u32 p = 0; p < kPartitions; ++p) {
    real.locals.push_back(local_dbscan(ps, tree, partitioning,
                                       static_cast<PartitionId>(p), local_cfg));
  }
  inputs.push_back(std::move(real));

  // The randomized fixture generator: chains as deep as the partition
  // count, core/border seed mixes, duplicate seeds, the small-cluster filter.
  for (const u32 partitions : {2u, 3u, 6u, 9u}) {
    for (const bool chain : {false, true}) {
      for (const double core_fraction : {0.35, 1.0}) {
        for (const u64 min_size : {u64{0}, u64{2}}) {
          FixtureConfig cfg;
          cfg.partitions = partitions;
          cfg.chain = chain;
          cfg.core_fraction = core_fraction;
          cfg.dup_seed_chance = 0.4;
          Rng rng(partitions * 10 + (chain ? 1 : 0));
          Input fixture;
          fixture.name = "fixture partitions=" + std::to_string(partitions) +
                         " chain=" + std::to_string(chain) + " core=" +
                         std::to_string(core_fraction) +
                         " min=" + std::to_string(min_size);
          fixture.locals = make_fixture(cfg, rng, &fixture.num_points);
          fixture.min_size = min_size;
          inputs.push_back(std::move(fixture));
        }
      }
    }
  }

  for (const Input& input : inputs) {
    for (const auto strategy :
         {MergeStrategy::kUnionFind, MergeStrategy::kPaperSinglePass}) {
      MergeOptions opt;
      opt.strategy = strategy;
      opt.min_partial_cluster_size = input.min_size;
      const auto baseline =
          merge_partial_clusters(input.locals, input.num_points, opt);
      for (u64 seed = 1; seed <= 50; ++seed) {
        std::vector<LocalClusterResult> shuffled = input.locals;
        Rng rng(seed);
        rng.shuffle(shuffled);
        expect_identical(
            baseline, merge_partial_clusters(shuffled, input.num_points, opt),
            input.name + " strategy=" + merge_strategy_name(strategy) +
                " seed=" + std::to_string(seed));
      }
    }
  }
}

}  // namespace
}  // namespace sdb::dbscan
