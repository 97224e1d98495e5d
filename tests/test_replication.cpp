// WAL-shipping replication unit suite: batch wire framing, the relay →
// transport → applier pipeline, snapshot catch-up, term fencing,
// epoch-bounded staleness routing, failover promotion, and durable follower
// restart. The seeded chaos grid lives in test_replica_chaos.cpp; this file
// pins each mechanism down in isolation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "fault/fault_plan.hpp"
#include "replica/applier.hpp"
#include "replica/relay.hpp"
#include "replica/replica_set.hpp"
#include "replica/sharded_cluster.hpp"
#include "replica/wal_ship.hpp"
#include "serve/model_registry.hpp"
#include "util/serialize.hpp"

namespace sdb::replica {
namespace {

namespace fs = std::filesystem;

serve::ModelRegistry::Config replicated_config(
    serve::RegistryRole role, u64 publish_every = 0) {
  serve::ModelRegistry::Config cfg;
  cfg.params = dbscan::DbscanParams{0.2, 2};
  cfg.publish_every = publish_every;
  cfg.replicated = true;
  cfg.role = role;
  return cfg;
}

ReplicaSet::Options set_options(size_t replicas = 3) {
  ReplicaSet::Options opts;
  opts.replicas = replicas;
  opts.registry = replicated_config(serve::RegistryRole::kPrimary);
  opts.registry.role = serve::RegistryRole::kPrimary;  // overridden per node
  return opts;
}

/// Content digest of a model — FNV-1a over its serialized bytes (epoch is
/// NOT serialized, so equal digests mean equal content).
u64 model_digest(const serve::ClusterModel& model) {
  const std::vector<char> bytes = model.save();
  u64 h = 1469598103934665603ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void insert_grid(ReplicaSet& set, int n, double offset = 0.0) {
  for (int i = 0; i < n; ++i) {
    const double coords[2] = {offset + 0.1 * i, 0.5};
    ASSERT_TRUE(set.insert(coords).has_value());
  }
}

TEST(WalShip, BatchRoundTripsAllRecordTypes) {
  WalBatch batch;
  batch.term = 3;
  batch.generation = 2;
  batch.start_seq = 41;
  batch.committed_epoch = 9;
  serve::WalRecord ins;
  ins.type = serve::WalRecordType::kInsert;
  ins.coords = {1.5, -2.25, 3.0};
  serve::WalRecord rem;
  rem.type = serve::WalRecordType::kRemove;
  rem.point_id = 17;
  serve::WalRecord pub;
  pub.type = serve::WalRecordType::kPublish;
  pub.epoch = 8;
  batch.records = {ins, rem, pub};

  WalBatch decoded;
  ASSERT_TRUE(decode_batch(encode_batch(batch), &decoded));
  EXPECT_EQ(decoded.term, 3u);
  EXPECT_EQ(decoded.generation, 2u);
  EXPECT_EQ(decoded.start_seq, 41u);
  EXPECT_EQ(decoded.committed_epoch, 9u);
  ASSERT_EQ(decoded.records.size(), 3u);
  EXPECT_EQ(decoded.records[0].coords, ins.coords);
  EXPECT_EQ(decoded.records[1].point_id, 17);
  EXPECT_EQ(decoded.records[2].epoch, 8u);
}

TEST(WalShip, EveryFlippedByteIsRejected) {
  WalBatch batch;
  batch.term = 1;
  serve::WalRecord ins;
  ins.type = serve::WalRecordType::kInsert;
  ins.coords = {0.5, 0.5};
  batch.records = {ins};
  const std::vector<char> frame = encode_batch(batch);
  // Flip each payload byte in turn (skip the outer length word: a wrong
  // length is rejected by the size check, also exercised at offset 0).
  for (size_t i = 0; i < frame.size(); ++i) {
    std::vector<char> bad = frame;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    WalBatch decoded;
    EXPECT_FALSE(decode_batch(bad, &decoded)) << "flip at byte " << i;
  }
  std::vector<char> truncated(frame.begin(), frame.end() - 1);
  WalBatch decoded;
  EXPECT_FALSE(decode_batch(truncated, &decoded));
}

/// `payload` in a frame with a valid checksum, so that a malformed payload
/// reaches decode_batch's structured reads.
std::vector<char> frame_around(const std::vector<char>& payload) {
  u64 sum = 1469598103934665603ull;  // FNV-1a, the frame checksum
  for (const char c : payload) {
    sum ^= static_cast<unsigned char>(c);
    sum *= 1099511628211ull;
  }
  BinaryWriter frame;
  frame.write_u32(static_cast<u32>(payload.size()));
  frame.write_bytes(payload.data(), payload.size());
  frame.write_u64(sum);
  return frame.take();
}

TEST(WalShip, RecordCountBeyondTheFrameIsRejected) {
  // A frame whose checksum is valid but whose record count exceeds what
  // its bytes could hold, at 4 bytes of length prefix per record: decode
  // rejects it instead of reserving room for 2^32 - 1 records.
  BinaryWriter payload;
  for (int field = 0; field < 4; ++field) payload.write_u64(1);  // header
  payload.write_u32(0xffffffffu);
  payload.write_u32(0);
  WalBatch decoded;
  EXPECT_FALSE(decode_batch(frame_around(payload.buffer()), &decoded));
}

TEST(WalShip, PayloadShorterThanTheHeaderIsRejected) {
  // A checksum is no proof that the sender was encode_batch: a valid frame
  // around fewer bytes than the 36-byte batch header is rejected, not read
  // past its end.
  for (size_t len = 0; len < 4 * sizeof(u64) + sizeof(u32); ++len) {
    WalBatch decoded;
    EXPECT_FALSE(decode_batch(frame_around(std::vector<char>(len, 0)),
                              &decoded))
        << len << "-byte payload";
  }
}

TEST(Replication, FollowersConvergeToPrimaryContent) {
  ReplicaSet set(set_options(3), 2);
  insert_grid(set, 12);
  const std::optional<u64> e = set.publish();
  ASSERT_TRUE(e.has_value());
  set.pump();

  const auto primary = set.node_registry(set.primary_index());
  for (size_t i = 0; i < set.replicas(); ++i) {
    const auto reg = set.node_registry(i);
    ASSERT_NE(reg, nullptr);
    EXPECT_EQ(reg->epoch(), *e) << "node " << i;
    EXPECT_EQ(model_digest(*reg->model()), model_digest(*primary->model()))
        << "node " << i;
  }
  // With one applied follower the epoch is committed.
  EXPECT_EQ(set.committed_epoch(), *e);
  EXPECT_EQ(set.committed_model()->epoch(), *e);
}

#ifdef SDB_FAULT_INJECTION
TEST(Replication, CommitWaitsForFollowerAck) {
  // Drop every shipped frame: publishes stay pending, the committed epoch
  // (and the models served from the primary) stay at the construction
  // epoch even though the primary has advanced.
  ReplicaSet set(set_options(3), 2);
  const u64 base = set.committed_epoch();
  fault::ScopedFaultPlan plan("seed=7;replica.ship.drop:p=1");
  insert_grid(set, 6);
  ASSERT_TRUE(set.publish().has_value());
  set.pump();
  set.pump();
  EXPECT_EQ(set.committed_epoch(), base);
  // Primary-targeted reads serve the committed (old) model, not the
  // pending one.
  const double q[2] = {0.2, 0.5};
  const ReplicaSet::ClassifyResult r = set.classify(q, set.primary_index());
  EXPECT_EQ(r.epoch, base);
}

TEST(Replication, DroppedFramesHealViaRetransmit) {
  ReplicaSet set(set_options(2), 2);
  {
    // Deterministically drop the first 3 frames; the relay re-ships from
    // the follower's unadvanced cursor on the next pump.
    fault::ScopedFaultPlan plan("seed=7;replica.ship.drop:budget=3");
    insert_grid(set, 8);
    ASSERT_TRUE(set.publish().has_value());
    for (int i = 0; i < 6; ++i) set.pump();
  }
  const auto primary = set.node_registry(set.primary_index());
  const auto follower = set.node_registry(1);
  EXPECT_EQ(follower->epoch(), primary->epoch());
  EXPECT_GT(set.transport_stats(1).dropped, 0u);
}

TEST(Replication, DuplicatesAndReordersAreAbsorbed) {
  ReplicaSet set(set_options(2), 2);
  {
    fault::ScopedFaultPlan plan(
        "seed=11;replica.ship.duplicate:p=0.5;replica.ship.reorder:p=0.5");
    for (int round = 0; round < 10; ++round) {
      insert_grid(set, 3, 0.01 * round);
      ASSERT_TRUE(set.publish().has_value());
      set.pump();
    }
    for (int i = 0; i < 4; ++i) set.pump();
  }
  const auto primary = set.node_registry(set.primary_index());
  const auto follower = set.node_registry(1);
  EXPECT_EQ(follower->epoch(), primary->epoch());
  EXPECT_EQ(model_digest(*follower->model()), model_digest(*primary->model()));
  const Applier::Stats stats = set.applier_stats(1);
  EXPECT_GT(stats.duplicates_skipped + stats.gaps, 0u);
}
#endif  // SDB_FAULT_INJECTION

TEST(Replication, LaggingFollowerCatchesUpViaSnapshotHandshake) {
  // Raw-component test: compaction on the primary discards the records a
  // never-pumped follower needs, so the relay must fall back to the
  // snapshot handshake (generation mismatch at the applier's cursor).
  const std::string dir =
      (fs::temp_directory_path() / ("sdb_repl_snap_p" + std::to_string(getpid())))
          .string();
  fs::remove_all(dir);
  auto cfg_p = replicated_config(serve::RegistryRole::kPrimary);
  cfg_p.wal_dir = dir;
  auto primary = std::make_shared<serve::ModelRegistry>(cfg_p, 2);
  for (int i = 0; i < 10; ++i) {
    const double coords[2] = {0.1 * i, 0.5};
    primary->insert(coords);
  }
  primary->publish();
  const u64 compacted = primary->compact();  // rotates to generation 1
  ASSERT_EQ(primary->wal()->generation(), 1u);

  auto follower = std::make_shared<serve::ModelRegistry>(
      replicated_config(serve::RegistryRole::kFollower), 2);
  Applier applier(follower);
  ShipTransport transport;
  Relay relay(primary, /*term=*/1, /*batch_records=*/4, /*pipeline=*/2);
  // First pump: cursor (0, 0) vs generation 1 -> snapshot installed.
  relay.pump(applier, transport);
  EXPECT_EQ(applier.stats().snapshots_installed, 1u);
  EXPECT_EQ(follower->epoch(), compacted);
  EXPECT_EQ(model_digest(*follower->model()), model_digest(*primary->model()));

  // Post-compaction mutations ship as normal records from (1, 0).
  const double extra[2] = {5.0, 5.0};
  primary->insert(extra);
  primary->publish();
  relay.pump(applier, transport);
  while (auto frame = transport.receive()) applier.offer(*frame);
  EXPECT_EQ(follower->epoch(), primary->epoch());
  EXPECT_EQ(model_digest(*follower->model()), model_digest(*primary->model()));
  fs::remove_all(dir);
}

TEST(Replication, StaleTermsAreFenced) {
  auto follower = std::make_shared<serve::ModelRegistry>(
      replicated_config(serve::RegistryRole::kFollower), 2);
  Applier applier(follower);

  serve::WalRecord pub;
  pub.type = serve::WalRecordType::kPublish;
  pub.epoch = 1;
  WalBatch term2;
  term2.term = 2;
  term2.records = {pub};
  EXPECT_TRUE(applier.offer(encode_batch(term2)));  // adopts term 2
  EXPECT_EQ(applier.term(), 2u);

  WalBatch stale;
  stale.term = 1;
  stale.start_seq = 1;
  serve::WalRecord ins;
  ins.type = serve::WalRecordType::kInsert;
  ins.coords = {9.0, 9.0};
  stale.records = {ins};
  EXPECT_FALSE(applier.offer(encode_batch(stale)));  // deposed primary
  EXPECT_EQ(applier.stats().fenced, 1u);
  EXPECT_EQ(follower->active_points(), 0u);
}

#ifdef SDB_FAULT_INJECTION
TEST(Replication, StalenessBoundRedirectsLaggingFollowerReads) {
  // ack_replicas=0 commits on publish (primary-only durability), so the
  // committed watermark advances while a fully-partitioned follower stays
  // at the construction epoch — its reads must redirect once the lag
  // exceeds the bound.
  ReplicaSet::Options opts = set_options(2);
  opts.ack_replicas = 0;
  opts.staleness_bound = 2;
  ReplicaSet set(opts, 2);
  fault::ScopedFaultPlan plan("seed=3;replica.ship.drop:p=1");
  for (int round = 0; round < 4; ++round) {
    insert_grid(set, 2, 0.01 * round);
    ASSERT_TRUE(set.publish().has_value());
    set.pump();
  }
  const u64 committed = set.committed_epoch();
  const auto follower = set.node_registry(1);
  ASSERT_GT(committed, follower->epoch() + opts.staleness_bound);

  const double q[2] = {0.0, 0.5};
  const ReplicaSet::ClassifyResult r = set.classify(q, 1);
  EXPECT_TRUE(r.redirected);
  EXPECT_EQ(r.epoch, committed);  // served from the committed model
  EXPECT_GE(set.stale_redirects(), 1u);
}
#endif  // SDB_FAULT_INJECTION

TEST(Replication, FailoverPromotesFollowerAndResumesWrites) {
  ReplicaSet::Options opts = set_options(3);
  opts.heartbeat_timeout = 2;
  ReplicaSet set(opts, 2);
  insert_grid(set, 10);
  const std::optional<u64> e = set.publish();
  ASSERT_TRUE(e.has_value());
  set.pump();
  ASSERT_EQ(set.committed_epoch(), *e);
  const u64 digest_before = model_digest(*set.committed_model());

  set.kill_primary();
  EXPECT_FALSE(set.has_live_primary());
  // Reads stay available throughout the failover window.
  const double q[2] = {0.5, 0.5};
  EXPECT_EQ(set.classify(q, 0).epoch, *e);
  // Writes are refused until promotion.
  const double coords[2] = {2.0, 2.0};
  EXPECT_FALSE(set.insert(coords).has_value());

  for (u64 t = 0; t <= opts.heartbeat_timeout + 1; ++t) set.tick();
  EXPECT_TRUE(set.has_live_primary());
  EXPECT_NE(set.primary_index(), 0u);
  EXPECT_EQ(set.failovers(), 1u);
  EXPECT_EQ(set.term(), 2u);
  // Nothing committed was lost across the failover.
  EXPECT_GE(set.committed_epoch(), *e);
  EXPECT_EQ(model_digest(*set.committed_model()), digest_before);

  // The new primary accepts writes and replicates to the survivor.
  ASSERT_TRUE(set.insert(coords).has_value());
  const std::optional<u64> e2 = set.publish();
  ASSERT_TRUE(e2.has_value());
  EXPECT_GT(*e2, *e);
  set.pump();
  EXPECT_EQ(set.committed_epoch(), *e2);
  for (size_t i = 0; i < set.replicas(); ++i) {
    if (!set.alive(i)) continue;
    EXPECT_EQ(set.node_registry(i)->epoch(), *e2) << "node " << i;
  }
}

TEST(Replication, DurableFollowerRestartsAtItsStreamCursor) {
  // A follower process restart: its durable WAL holds the applied stream
  // prefix, so a fresh registry + applier resume at exactly the right
  // (generation, seq) without a snapshot handshake.
  const std::string dir =
      (fs::temp_directory_path() / ("sdb_repl_restart_p" + std::to_string(getpid())))
          .string();
  fs::remove_all(dir);
  auto primary = std::make_shared<serve::ModelRegistry>(
      replicated_config(serve::RegistryRole::kPrimary), 2);
  auto follower_cfg = replicated_config(serve::RegistryRole::kFollower);
  follower_cfg.wal_dir = dir;

  Relay relay(primary, /*term=*/1, /*batch_records=*/8, /*pipeline=*/2);
  u64 cursor_at_shutdown = 0;
  {
    auto follower = std::make_shared<serve::ModelRegistry>(follower_cfg, 2);
    Applier applier(follower);
    ShipTransport transport;
    for (int i = 0; i < 6; ++i) {
      const double coords[2] = {0.1 * i, 0.5};
      primary->insert(coords);
    }
    primary->publish();
    relay.pump(applier, transport);
    while (auto frame = transport.receive()) applier.offer(*frame);
    EXPECT_EQ(follower->epoch(), primary->epoch());
    cursor_at_shutdown = applier.cursor().next_seq;
  }
  // More primary traffic while the follower is down.
  const double extra[2] = {7.0, 7.0};
  primary->insert(extra);
  primary->publish();
  {
    auto follower = std::make_shared<serve::ModelRegistry>(follower_cfg, 2);
    Applier applier(follower);
    EXPECT_EQ(applier.cursor().next_seq, cursor_at_shutdown);
    ShipTransport transport;
    relay.pump(applier, transport);
    while (auto frame = transport.receive()) applier.offer(*frame);
    EXPECT_EQ(applier.stats().snapshots_installed, 0u);
    EXPECT_EQ(follower->epoch(), primary->epoch());
    EXPECT_EQ(model_digest(*follower->model()),
              model_digest(*primary->model()));
  }
  fs::remove_all(dir);
}

TEST(ShardedCluster, RoutesDeterministicallyAndServesAllShards) {
  ShardedCluster::Options opts;
  opts.shards = 3;
  opts.replica = set_options(2);
  ShardedCluster cluster(opts, 2);

  std::vector<std::vector<double>> points;
  for (int i = 0; i < 60; ++i) {
    points.push_back({0.37 * i, 1.0 - 0.11 * i});
  }
  std::vector<size_t> shard_of;
  for (const auto& p : points) {
    shard_of.push_back(cluster.shard_for(p));
    const auto r = cluster.insert(p);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->shard, shard_of.back());
  }
  // Routing is stable: a second router built the same way agrees.
  ShardedCluster router(opts, 2);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(router.shard_for(points[i]), shard_of[i]);
  }
  cluster.publish_all();
  cluster.pump_all();
  for (size_t s = 0; s < cluster.shards(); ++s) {
    EXPECT_GT(cluster.shard(s).committed_epoch(), 1u) << "shard " << s;
  }
  // Classify routes to the same shard the insert went to; with replication
  // caught up no read redirects.
  for (const auto& p : points) {
    const auto r = cluster.classify(p, 1);
    EXPECT_FALSE(r.redirected);
  }
}

// TSan entry point (sanitize label): hammer the lock-free routed-read path
// from reader threads while the driver thread inserts, publishes, pumps,
// kills the primary, and promotes a follower. Readers must always get a
// model (never a null deref, never a torn epoch).
TEST(Replication, ConcurrentReadsSurviveFailover) {
  ReplicaSet::Options opts = set_options(3);
  opts.heartbeat_timeout = 1;
  ReplicaSet set(opts, 2);
  insert_grid(set, 8);
  ASSERT_TRUE(set.publish().has_value());
  set.pump();

  std::atomic<bool> stop{false};
  std::atomic<u64> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&set, &stop, &reads, t] {
      const double q[2] = {0.1 * t, 0.5};
      u64 last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const ReplicaSet::ClassifyResult r =
            set.classify(q, static_cast<size_t>(t));
        // Epochs a reader observes never go backwards past the committed
        // floor it has already seen from the same replica preference.
        if (r.redirected) {
          EXPECT_GE(r.epoch + 1, last_epoch);
        }
        last_epoch = r.epoch;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int round = 0; round < 30; ++round) {
    const double coords[2] = {0.05 * round, 0.25};
    (void)set.insert(coords);
    if (round % 3 == 0) (void)set.publish();
    set.pump();
    set.tick();
    if (round == 15) set.kill_primary();
  }
  // On a loaded single-core host the driver loop can finish before any
  // reader thread is first scheduled; wait for one read before stopping.
  while (reads.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(set.failovers(), 1u);
  EXPECT_TRUE(set.has_live_primary());
}

}  // namespace
}  // namespace sdb::replica
