#include "serve/classify_cache.hpp"

#include <algorithm>

#include "util/fnv.hpp"

namespace sdb::serve {

u64 ClassifyCache::hash_point(std::span<const double> point) {
  return fnv1a(point.data(), point.size_bytes());
}

bool ClassifyCache::lookup(u64 hash, std::span<const double> point, u64 epoch,
                           ClusterId* label) {
  Shard& shard = shard_of(hash);
  const std::scoped_lock lock(shard.mu);
  if (shard.epoch != epoch) return false;
  const auto it = shard.map.find(hash);
  if (it == shard.map.end()) return false;
  const Entry& entry = *it->second;
  if (entry.point.size() != point.size() ||
      !std::equal(point.begin(), point.end(), entry.point.begin())) {
    return false;  // hash collision — treat as miss
  }
  *label = entry.label;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // touch
  return true;
}

void ClassifyCache::insert(u64 hash, std::span<const double> point, u64 epoch,
                           ClusterId label) {
  Shard& shard = shard_of(hash);
  const std::scoped_lock lock(shard.mu);
  if (shard.epoch != epoch) {
    // New epoch invalidates everything cached under the previous one.
    shard.lru.clear();
    shard.map.clear();
    shard.epoch = epoch;
  }
  const auto it = shard.map.find(hash);
  if (it != shard.map.end()) {
    it->second->label = label;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= kEntriesPerShard) {
    shard.map.erase(shard.lru.back().hash);
    shard.lru.pop_back();
  }
  shard.lru.push_front(Entry{hash, {point.begin(), point.end()}, label});
  shard.map.emplace(hash, shard.lru.begin());
}

}  // namespace sdb::serve
