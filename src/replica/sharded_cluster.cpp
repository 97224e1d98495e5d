#include "replica/sharded_cluster.hpp"

#include <algorithm>

namespace sdb::replica {

ShardedCluster::ShardedCluster(Options options, int dim)
    : options_(std::move(options)) {
  SDB_CHECK(options_.shards >= 1, "a sharded cluster needs at least one shard");
  shard_ids_.reserve(options_.shards);
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shard_ids_.push_back("shard-" + std::to_string(i));
    ring_.add_node(shard_ids_.back());
    ReplicaSet::Options opts = options_.replica;
    if (!opts.dir.empty()) opts.dir += "/shard_" + std::to_string(i);
    shards_.push_back(std::make_unique<ReplicaSet>(std::move(opts), dim));
  }
}

size_t ShardedCluster::shard_for(std::span<const double> point) const {
  const std::string& id = ring_.node_for(ConsistentHashRing::hash_point(point));
  const auto it = std::find(shard_ids_.begin(), shard_ids_.end(), id);
  return static_cast<size_t>(it - shard_ids_.begin());
}

std::optional<ShardedCluster::InsertResult> ShardedCluster::insert(
    std::span<const double> coords) {
  const size_t s = shard_for(coords);
  const std::optional<PointId> id = shards_[s]->insert(coords);
  if (!id.has_value()) return std::nullopt;
  return InsertResult{s, *id};
}

ReplicaSet::ClassifyResult ShardedCluster::classify(
    std::span<const double> point, size_t preferred_replica) const {
  return shards_[shard_for(point)]->classify(point, preferred_replica);
}

void ShardedCluster::bootstrap(const PointSet& points) {
  for (PointId i = 0; i < static_cast<PointId>(points.size()); ++i) {
    (void)shards_[shard_for(points[i])]->insert(points[i]);
  }
  publish_all();
}

void ShardedCluster::pump_all() {
  for (auto& s : shards_) s->pump();
}

void ShardedCluster::tick_all() {
  for (auto& s : shards_) s->tick();
}

void ShardedCluster::publish_all() {
  for (auto& s : shards_) (void)s->publish();
}

}  // namespace sdb::replica
