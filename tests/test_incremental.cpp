#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include "core/dbscan_seq.hpp"
#include "core/quality.hpp"
#include "spatial/brute_force.hpp"
#include "synth/generators.hpp"
#include "util/rng.hpp"

namespace sdb::dbscan {
namespace {

IncrementalDbscan::Config config(double eps, i64 minpts,
                                 size_t rebuild = 64) {
  IncrementalDbscan::Config cfg;
  cfg.params = {eps, minpts};
  cfg.rebuild_threshold = rebuild;
  return cfg;
}

/// Full structural comparison against batch DBSCAN at given params.
/// (Insert-only histories: rows are ids.)
void check_equivalent(const IncrementalDbscan& inc, const DbscanParams& params,
                      const std::string& context) {
  const PointSet& ps = *inc.storage_view().rows;
  if (ps.empty()) return;
  const BruteForceIndex index(ps);
  const auto batch = dbscan_sequential(ps, index, params);
  const Clustering mine = inc.clustering();
  const auto report = check_equivalence(ps, index, params, batch.core_points,
                                        batch.clustering, mine);
  EXPECT_TRUE(report.equivalent)
      << context << ": core=" << report.core_mismatches
      << " noise=" << report.noise_mismatches
      << " border=" << report.border_violations << " " << report.detail;
  // Core flags must agree exactly.
  std::vector<char> batch_core(ps.size(), 0);
  for (const PointId c : batch.core_points) batch_core[static_cast<size_t>(c)] = 1;
  for (PointId i = 0; i < static_cast<PointId>(ps.size()); ++i) {
    EXPECT_EQ(inc.is_core(i), batch_core[static_cast<size_t>(i)] != 0)
        << context << " point " << i;
  }
}

TEST(Incremental, EmptyAndSingle) {
  IncrementalDbscan inc(config(1.0, 2), 2);
  EXPECT_EQ(inc.size(), 0u);
  const double p[2] = {0, 0};
  inc.insert(p);
  EXPECT_EQ(inc.size(), 1u);
  EXPECT_EQ(inc.label_of(0), kNoise);
  EXPECT_FALSE(inc.is_core(0));
}

TEST(Incremental, PairBecomesCluster) {
  IncrementalDbscan inc(config(1.0, 2), 1);
  const double a[1] = {0.0};
  const double b[1] = {0.5};
  inc.insert(a);
  EXPECT_EQ(inc.label_of(0), kNoise);
  inc.insert(b);
  // Both now have 2 neighbors (self-inclusive) -> both core, one cluster.
  EXPECT_TRUE(inc.is_core(0));
  EXPECT_TRUE(inc.is_core(1));
  EXPECT_EQ(inc.label_of(0), inc.label_of(1));
  EXPECT_NE(inc.label_of(0), kNoise);
}

TEST(Incremental, BridgePointMergesClusters) {
  // Two separate dense groups; a final bridge point connects them.
  IncrementalDbscan inc(config(1.1, 2), 1);
  for (const double x : {0.0, 1.0, 4.0, 5.0}) {
    const double p[1] = {x};
    inc.insert(p);
  }
  auto snapshot = inc.clustering();
  EXPECT_EQ(snapshot.num_clusters, 2u);
  const double bridge[1] = {2.5};
  inc.insert(bridge);  // within 1.1 of... nothing? 2.5-1.0=1.5 too far.
  EXPECT_EQ(inc.clustering().num_clusters, 2u);
  const double bridge2[1] = {2.0};  // links to 1.0
  const double bridge3[1] = {3.0};  // links to 2.0, 2.5... chain to 4.0
  inc.insert(bridge2);
  inc.insert(bridge3);
  const auto merged = inc.clustering();
  EXPECT_EQ(merged.num_clusters, 1u);
  EXPECT_GT(inc.merges(), 0u);
  check_equivalent(inc, {1.1, 2}, "bridge");
}

TEST(Incremental, NoisePromotedToBorder) {
  IncrementalDbscan inc(config(1.0, 3), 1);
  const double a[1] = {0.0};
  inc.insert(a);
  EXPECT_EQ(inc.label_of(0), kNoise);
  const double b[1] = {0.9};
  inc.insert(b);
  EXPECT_EQ(inc.label_of(0), kNoise);  // still: nobody is core (minpts 3)
  const double c[1] = {0.45};
  inc.insert(c);
  // c has neighbors {a, b, c} -> core; a and b become border points.
  EXPECT_TRUE(inc.is_core(2));
  EXPECT_NE(inc.label_of(0), kNoise);
  EXPECT_EQ(inc.label_of(0), inc.label_of(1));
  check_equivalent(inc, {1.0, 3}, "promotion");
}

class IncrementalEqualsBatch
    : public ::testing::TestWithParam<std::tuple<u64, size_t>> {};

TEST_P(IncrementalEqualsBatch, AfterEveryFewInsertions) {
  const auto [seed, rebuild] = GetParam();
  Rng rng(seed);
  synth::GaussianMixtureConfig gcfg;
  gcfg.n = 400;
  gcfg.dim = 2;
  gcfg.clusters = 4;
  gcfg.sigma = 0.5;
  gcfg.noise_fraction = 0.15;
  gcfg.box_side = 30.0;
  const PointSet data = synth::gaussian_clusters(gcfg, rng);
  const DbscanParams params{0.8, 4};

  IncrementalDbscan inc(config(params.eps, params.minpts, rebuild), 2);
  for (PointId i = 0; i < static_cast<PointId>(data.size()); ++i) {
    inc.insert(data[i]);
    if ((i + 1) % 100 == 0) {
      check_equivalent(inc, params,
                       "seed=" + std::to_string(seed) + " after " +
                           std::to_string(i + 1));
    }
  }
  check_equivalent(inc, params, "final seed=" + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementalEqualsBatch,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(size_t{0}, size_t{64})));

TEST(Incremental, InsertionOrderInvariantStructure) {
  // Same multiset of points, two insertion orders -> equivalent clusterings.
  Rng rng(9);
  synth::GaussianMixtureConfig gcfg;
  gcfg.n = 200;
  gcfg.dim = 2;
  gcfg.clusters = 3;
  gcfg.sigma = 0.4;
  gcfg.box_side = 25.0;
  const PointSet data = synth::gaussian_clusters(gcfg, rng);
  const DbscanParams params{0.8, 4};

  IncrementalDbscan forward(config(params.eps, params.minpts), 2);
  for (PointId i = 0; i < static_cast<PointId>(data.size()); ++i) {
    forward.insert(data[i]);
  }
  IncrementalDbscan backward(config(params.eps, params.minpts), 2);
  for (PointId i = static_cast<PointId>(data.size()); i-- > 0;) {
    backward.insert(data[i]);
  }
  const auto a = forward.clustering();
  const auto b = backward.clustering();
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.noise_count(), b.noise_count());
}

/// Compare the incremental state (with tombstones) against batch DBSCAN
/// over the surviving points only.
void check_equivalent_survivors(const IncrementalDbscan& inc,
                                const DbscanParams& params,
                                const std::string& context) {
  PointSet survivors(inc.storage_view().rows->dim());
  std::vector<PointId> survivor_ids;
  for (PointId i = 0; i < static_cast<PointId>(inc.size()); ++i) {
    if (!inc.is_removed(i)) {
      survivors.add(inc.coords_of(i));
      survivor_ids.push_back(i);
    }
  }
  if (survivors.empty()) return;
  const BruteForceIndex index(survivors);
  const auto batch = dbscan_sequential(survivors, index, params);
  Clustering mine;
  mine.labels.reserve(survivors.size());
  const Clustering full = inc.clustering();
  for (const PointId id : survivor_ids) {
    mine.labels.push_back(full.labels[static_cast<size_t>(id)]);
  }
  mine.num_clusters = full.num_clusters;
  mine.normalize();
  const auto report = check_equivalence(survivors, index, params,
                                        batch.core_points, batch.clustering,
                                        mine);
  EXPECT_TRUE(report.equivalent)
      << context << ": core=" << report.core_mismatches
      << " noise=" << report.noise_mismatches
      << " border=" << report.border_violations << " " << report.detail;
}

TEST(IncrementalRemove, RemovingBridgeSplitsCluster) {
  // a-b-bridge-c-d chain; removing the bridge must split one cluster in two.
  IncrementalDbscan inc(config(1.1, 2), 1);
  PointId bridge = -1;
  for (const double x : {0.0, 1.0, 2.0, 3.0, 4.0}) {
    const PointId id = [&] {
      const double p[1] = {x};
      return inc.insert(p);
    }();
    if (x == 2.0) bridge = id;
  }
  EXPECT_EQ(inc.clustering().num_clusters, 1u);
  ASSERT_TRUE(inc.try_remove(bridge));
  EXPECT_EQ(inc.clustering().num_clusters, 2u);
  EXPECT_EQ(inc.active_size(), 4u);
  EXPECT_GT(inc.reclusterings(), 0u);
  check_equivalent_survivors(inc, {1.1, 2}, "bridge removal");
}

TEST(IncrementalRemove, RemovingNoiseIsCheap) {
  IncrementalDbscan inc(config(1.0, 3), 1);
  for (const double x : {0.0, 0.5, 1.0, 50.0}) {
    const double p[1] = {x};
    inc.insert(p);
  }
  EXPECT_EQ(inc.label_of(3), kNoise);
  ASSERT_TRUE(inc.try_remove(3));
  EXPECT_EQ(inc.reclusterings(), 0u);  // noise removal touches no cluster
  check_equivalent_survivors(inc, {1.0, 3}, "noise removal");
}

TEST(IncrementalRemove, DemotionTurnsClusterToNoise) {
  // Exactly minpts points in a blob: removing any one demotes the rest.
  IncrementalDbscan inc(config(1.0, 3), 1);
  for (const double x : {0.0, 0.3, 0.6}) {
    const double p[1] = {x};
    inc.insert(p);
  }
  EXPECT_EQ(inc.clustering().num_clusters, 1u);
  ASSERT_TRUE(inc.try_remove(1));
  EXPECT_EQ(inc.clustering().num_clusters, 0u);
  EXPECT_EQ(inc.label_of(0), kNoise);
  EXPECT_EQ(inc.label_of(2), kNoise);
  check_equivalent_survivors(inc, {1.0, 3}, "demotion");
}

TEST(IncrementalRemove, InvalidIdsAreRecoverable) {
  // A malformed client write must not kill the server: unknown ids, double
  // removes, and stale (reclaimed) ids all fail softly with no state change.
  IncrementalDbscan inc(config(1.0, 2), 1);
  EXPECT_FALSE(inc.try_remove(0));   // never issued
  EXPECT_FALSE(inc.try_remove(-1));  // nonsense
  const double p[1] = {0.0};
  inc.insert(p);
  EXPECT_FALSE(inc.try_remove(7));  // beyond the id space
  EXPECT_TRUE(inc.try_remove(0));
  EXPECT_FALSE(inc.try_remove(0));  // double remove
  EXPECT_EQ(inc.active_size(), 0u);
  EXPECT_TRUE(inc.is_removed(0));
}

TEST(IncrementalRemove, StaleIdAfterReclaimStaysRemoved) {
  // Reclaim compacts tombstoned rows away; the external id must keep
  // reporting removed and reject re-removal (the ingest path races stale
  // client ids against the reclaimer).
  IncrementalDbscan inc(config(1.0, 2, /*rebuild=*/4), 1);
  std::vector<PointId> ids;
  for (const double x : {0.0, 0.5, 1.0, 1.5, 2.0, 2.5}) {
    const double p[1] = {x};
    ids.push_back(inc.insert(p));
  }
  ASSERT_TRUE(inc.try_remove(ids[1]));
  ASSERT_TRUE(inc.try_remove(ids[3]));
  // Push past the removal threshold so the reclaim fires.
  for (const double x : {5.0, 5.5, 6.0, 6.5}) {
    const double p[1] = {x};
    inc.insert(p);
  }
  ASSERT_TRUE(inc.try_remove(ids[0]));
  ASSERT_TRUE(inc.try_remove(ids[2]));
  EXPECT_GT(inc.reclaimed(), 0u);
  EXPECT_TRUE(inc.is_removed(ids[1]));
  EXPECT_FALSE(inc.try_remove(ids[1]));  // reclaimed long ago
  EXPECT_FALSE(inc.try_remove(ids[3]));
  check_equivalent_survivors(inc, {1.0, 2}, "stale ids");
}

TEST(IncrementalRemove, ReinsertAfterRemove) {
  IncrementalDbscan inc(config(1.0, 2), 1);
  const double a[1] = {0.0};
  const double b[1] = {0.5};
  inc.insert(a);
  inc.insert(b);
  EXPECT_EQ(inc.clustering().num_clusters, 1u);
  ASSERT_TRUE(inc.try_remove(1));
  EXPECT_EQ(inc.clustering().num_clusters, 0u);
  inc.insert(b);  // same coordinates, new id
  EXPECT_EQ(inc.clustering().num_clusters, 1u);
  check_equivalent_survivors(inc, {1.0, 2}, "reinsert");
}

class IncrementalChurnEqualsBatch : public ::testing::TestWithParam<u64> {};

TEST_P(IncrementalChurnEqualsBatch, RandomInsertRemoveChurn) {
  Rng rng(GetParam());
  synth::GaussianMixtureConfig gcfg;
  gcfg.n = 300;
  gcfg.dim = 2;
  gcfg.clusters = 3;
  gcfg.sigma = 0.5;
  gcfg.noise_fraction = 0.15;
  gcfg.box_side = 25.0;
  const PointSet data = synth::gaussian_clusters(gcfg, rng);
  const DbscanParams params{0.8, 4};

  IncrementalDbscan inc(config(params.eps, params.minpts, 64), 2);
  std::vector<PointId> alive;
  PointId next = 0;
  int ops = 0;
  while (next < static_cast<PointId>(data.size()) || !alive.empty()) {
    const bool can_insert = next < static_cast<PointId>(data.size());
    const bool do_remove = !alive.empty() && (!can_insert || rng.chance(0.3));
    if (do_remove) {
      const size_t pick = rng.uniform_index(alive.size());
      ASSERT_TRUE(inc.try_remove(alive[pick]));
      alive[pick] = alive.back();
      alive.pop_back();
    } else {
      alive.push_back(inc.insert(data[next]));
      ++next;
    }
    if (++ops % 75 == 0) {
      check_equivalent_survivors(inc, params,
                                 "churn seed=" + std::to_string(GetParam()) +
                                     " op=" + std::to_string(ops));
    }
    if (ops > 450) break;
  }
  check_equivalent_survivors(inc, params,
                             "final churn seed=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalChurnEqualsBatch,
                         ::testing::Values(101u, 202u, 303u));

TEST(Incremental, RebuildsHappenAndPreserveResults) {
  Rng rng(11);
  IncrementalDbscan inc(config(0.8, 4, /*rebuild=*/32), 2);
  synth::UniformConfig ucfg;
  ucfg.n = 300;
  ucfg.dim = 2;
  ucfg.box_side = 12.0;
  const PointSet data = synth::uniform_points(ucfg, rng);
  for (PointId i = 0; i < static_cast<PointId>(data.size()); ++i) {
    inc.insert(data[i]);
  }
  EXPECT_GT(inc.rebuilds(), 3u);
  check_equivalent(inc, {0.8, 4}, "with rebuilds");
}

class IncrementalBatchEqualsBatch : public ::testing::TestWithParam<u64> {};

TEST_P(IncrementalBatchEqualsBatch, MicroBatchChurnEqualsBatchDbscan) {
  // Random micro-batches of mixed inserts/removes (the streaming pipeline's
  // unit of work): batched removals share one affected-region
  // re-clustering, and the result must stay exactly batch DBSCAN over the
  // survivors. Ids assigned through apply_batch must match sequential ids.
  Rng rng(GetParam());
  synth::GaussianMixtureConfig gcfg;
  gcfg.n = 300;
  gcfg.dim = 2;
  gcfg.clusters = 3;
  gcfg.sigma = 0.5;
  gcfg.noise_fraction = 0.15;
  gcfg.box_side = 25.0;
  const PointSet data = synth::gaussian_clusters(gcfg, rng);
  const DbscanParams params{0.8, 4};

  IncrementalDbscan inc(config(params.eps, params.minpts, 64), 2);
  std::vector<PointId> alive;
  PointId next = 0;
  int batches = 0;
  while (next < static_cast<PointId>(data.size()) || !alive.empty()) {
    std::vector<IncrementalDbscan::BatchOp> ops;
    std::vector<bool> expect_applied;
    const size_t batch = 1 + rng.uniform_index(24);
    std::vector<PointId> removed_now;
    for (size_t k = 0; k < batch; ++k) {
      const bool can_insert = next < static_cast<PointId>(data.size());
      const bool do_remove =
          !alive.empty() && (!can_insert || rng.chance(0.35));
      if (do_remove) {
        const size_t pick = rng.uniform_index(alive.size());
        ops.push_back(IncrementalDbscan::BatchOp::make_remove(alive[pick]));
        expect_applied.push_back(true);
        removed_now.push_back(alive[pick]);
        alive[pick] = alive.back();
        alive.pop_back();
      } else if (can_insert) {
        ops.push_back(IncrementalDbscan::BatchOp::make_insert(data[next]));
        expect_applied.push_back(true);
        alive.push_back(next);  // ids are sequential by construction
        ++next;
      }
    }
    if (!removed_now.empty() && rng.chance(0.5)) {
      // Adversarial tail: double-remove and a far-future id, both must
      // fail without poisoning the batch.
      ops.push_back(
          IncrementalDbscan::BatchOp::make_remove(removed_now.front()));
      expect_applied.push_back(false);
      ops.push_back(IncrementalDbscan::BatchOp::make_remove(
          static_cast<PointId>(data.size()) + 1000));
      expect_applied.push_back(false);
    }
    const auto results = inc.apply_batch(ops);
    ASSERT_EQ(results.size(), ops.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].applied, expect_applied[i]) << "op " << i;
      if (ops[i].kind == IncrementalDbscan::BatchOp::Kind::kRemove) {
        EXPECT_EQ(results[i].id, ops[i].id);
      }
    }
    if (++batches % 5 == 0) {
      check_equivalent_survivors(
          inc, params,
          "batch churn seed=" + std::to_string(GetParam()) + " batch=" +
              std::to_string(batches));
    }
    if (batches > 60) break;
  }
  check_equivalent_survivors(
      inc, params, "final batch churn seed=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalBatchEqualsBatch,
                         ::testing::Values(7u, 17u, 27u));

TEST(IncrementalReclaim, ChurnMemoryIsBoundedByLiveSet) {
  // Delete-heavy firehose over a sliding window: resident bytes must track
  // the ~200-point live set, not the 4000-insert history. Before reclaim
  // (PR 9) this grew without bound.
  Rng rng(42);
  synth::UniformConfig ucfg;
  ucfg.n = 4000;
  ucfg.dim = 2;
  ucfg.box_side = 60.0;
  const PointSet data = synth::uniform_points(ucfg, rng);
  const DbscanParams params{0.8, 4};

  IncrementalDbscan inc(config(params.eps, params.minpts, 64), 2);
  std::vector<PointId> window;
  size_t bytes_quarter = 0;
  for (PointId i = 0; i < static_cast<PointId>(data.size()); ++i) {
    window.push_back(inc.insert(data[i]));
    if (window.size() > 200) {
      ASSERT_TRUE(inc.try_remove(window.front()));
      window.erase(window.begin());
    }
    if (i == 1000) bytes_quarter = inc.resident_bytes();
  }
  EXPECT_GT(inc.reclaimed(), 0u);
  EXPECT_EQ(inc.active_size(), window.size());
  const size_t bytes_final = inc.resident_bytes();
  // 4x the ops, same live set: allow slack for the id map and overflow
  // buffer phase, but growth must be nowhere near the 4x of no reclaim.
  EXPECT_LT(bytes_final, bytes_quarter * 3 / 2)
      << "resident " << bytes_final << " vs " << bytes_quarter << " at 1/4";
  check_equivalent_survivors(inc, params, "sliding window");
}

TEST(IncrementalReclaim, RemoveHeavyTriggersRebuild) {
  // Removal-only traffic must also reclaim: the threshold counts
  // accumulated tombstones, not just overflow inserts.
  Rng rng(5);
  synth::UniformConfig ucfg;
  ucfg.n = 120;
  ucfg.dim = 2;
  ucfg.box_side = 20.0;
  const PointSet data = synth::uniform_points(ucfg, rng);
  IncrementalDbscan inc(config(0.8, 4, /*rebuild=*/32), 2);
  for (PointId i = 0; i < static_cast<PointId>(data.size()); ++i) {
    inc.insert(data[i]);
  }
  const u64 rebuilds_before = inc.rebuilds();
  for (PointId i = 0; i < 100; ++i) ASSERT_TRUE(inc.try_remove(i));
  EXPECT_GT(inc.rebuilds(), rebuilds_before);
  EXPECT_GT(inc.reclaimed(), 0u);
  EXPECT_EQ(inc.active_size(), 20u);
  check_equivalent_survivors(inc, {0.8, 4}, "remove heavy");
}

TEST(Incremental, RebuildThresholdZeroNeverRebuilds) {
  // rebuild_threshold = 0: no kd-tree is ever built, every query brute-
  // forces the overflow buffer — correct but degrading toward O(n) per op.
  Rng rng(13);
  synth::GaussianMixtureConfig gcfg;
  gcfg.n = 240;
  gcfg.dim = 2;
  gcfg.clusters = 3;
  gcfg.sigma = 0.5;
  gcfg.box_side = 25.0;
  const PointSet data = synth::gaussian_clusters(gcfg, rng);
  const DbscanParams params{0.8, 4};

  IncrementalDbscan inc(config(params.eps, params.minpts, /*rebuild=*/0), 2);
  WorkCounters early;
  WorkCounters late;
  for (PointId i = 0; i < static_cast<PointId>(data.size()); ++i) {
    WorkCounters* sink = nullptr;
    if (i < 40) {
      sink = &early;
    } else if (i >= static_cast<PointId>(data.size()) - 40) {
      sink = &late;
    }
    if (sink != nullptr) {
      ScopedCounters scope(sink);
      inc.insert(data[i]);
    } else {
      inc.insert(data[i]);
    }
    if (i % 3 == 0 && i > 0) {
      ASSERT_TRUE(inc.try_remove(i - 1));
    }
  }
  EXPECT_EQ(inc.rebuilds(), 0u);
  EXPECT_EQ(inc.reclaimed(), 0u);  // reclaim piggybacks on rebuilds
  // O(n) degradation is visible in the work counters: the last 40 inserts
  // brute-force a ~4x larger buffer than the first 40 did.
  EXPECT_GT(late.distance_evals, 2 * early.distance_evals);
  check_equivalent_survivors(inc, params, "never rebuild");

  // The ladder's deferred-rebuild rung restores the threshold at recovery;
  // index maintenance (and reclaim) must resume from the degraded state.
  inc.set_rebuild_threshold(32);
  for (PointId i = 0; i < 64; ++i) {
    const double p[2] = {100.0 + static_cast<double>(i), 0.0};
    inc.insert(p);
  }
  EXPECT_GT(inc.rebuilds(), 0u);
  EXPECT_GT(inc.reclaimed(), 0u);
  check_equivalent_survivors(inc, params, "threshold restored");
}

}  // namespace
}  // namespace sdb::dbscan
