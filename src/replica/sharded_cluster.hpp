// ShardedCluster — consistent-hash routing over independent ReplicaSets.
//
// The top of the replicated serving tier: `shards` replica sets, each a
// full primary+followers group (replica_set.hpp), with every point routed
// to exactly one shard by hashing its raw coordinate bytes onto the ring
// (hash_ring.hpp). Routing is stateless and cross-process deterministic —
// any router (CLI, bench thread, another process) sends a given point to
// the same shard with no coordination.
//
// Scope notes:
//   * point ids are SHARD-LOCAL — an insert returns (shard, local id);
//     cross-shard id unification is a directory-service concern that this
//     subsystem deliberately leaves out;
//   * each shard clusters its own key range independently — the paper's
//     partition-then-merge story applies to the OFFLINE pipeline; the
//     serving tier shards for throughput/failure isolation, not for
//     cross-shard cluster identity.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "geom/point_set.hpp"
#include "replica/hash_ring.hpp"
#include "replica/replica_set.hpp"

namespace sdb::replica {

class ShardedCluster {
 public:
  struct Options {
    size_t shards = 2;
    ReplicaSet::Options replica;  ///< per-shard replication options
  };

  struct InsertResult {
    size_t shard = 0;
    PointId id = 0;  ///< shard-local id
  };

  ShardedCluster(Options options, int dim);

  /// The shard owning `point` (pure function of the point + shard count).
  [[nodiscard]] size_t shard_for(std::span<const double> point) const;

  /// Routed write; nullopt while the owning shard has no live primary.
  [[nodiscard]] std::optional<InsertResult> insert(
      std::span<const double> coords);
  /// Routed read against the preferred replica of the owning shard.
  [[nodiscard]] ReplicaSet::ClassifyResult classify(
      std::span<const double> point, size_t preferred_replica) const;

  /// Route every point of `points` to its shard, then publish each shard.
  void bootstrap(const PointSet& points);

  /// Drive every shard's replication round / failure-detector beat.
  void pump_all();
  void tick_all();
  void publish_all();

  [[nodiscard]] size_t shards() const { return shards_.size(); }
  [[nodiscard]] ReplicaSet& shard(size_t i) { return *shards_[i]; }
  [[nodiscard]] const ReplicaSet& shard(size_t i) const { return *shards_[i]; }
  [[nodiscard]] const ConsistentHashRing& ring() const { return ring_; }

 private:
  Options options_;
  ConsistentHashRing ring_;
  std::vector<std::string> shard_ids_;  ///< ring id -> index is position
  std::vector<std::unique_ptr<ReplicaSet>> shards_;
};

}  // namespace sdb::replica
