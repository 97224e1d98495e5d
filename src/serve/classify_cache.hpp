// Sharded LRU cache for repeated classify queries.
//
// Real query traffic is heavily skewed (a few hot points queried over and
// over); a classify result is immutable for the lifetime of one model epoch,
// so caching (point -> label) is sound as long as entries are fenced by
// epoch. Each shard is an independent mutex + LRU list + hash map, selected
// by the point's content hash, so concurrent workers only contend when they
// hit the same shard. An entry is valid only for the epoch it was inserted
// under; a shard that observes a different epoch drops its contents
// wholesale (cheap, and publication is rare relative to queries).
//
// Keys are FNV-1a hashes of the raw coordinate bytes with full-coordinate
// equality confirmation on hit, so hash collisions degrade to misses, never
// to wrong answers.
#pragma once

#include <array>
#include <list>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/common.hpp"

namespace sdb::serve {

class ClassifyCache {
 public:
  /// kShards concurrent regions of kEntriesPerShard LRU entries each.
  static constexpr size_t kShards = 8;
  static constexpr size_t kEntriesPerShard = 1024;

  /// Content hash of a query point (shard + map key).
  static u64 hash_point(std::span<const double> point);

  /// True and sets *label if (point, epoch) is cached.
  bool lookup(u64 hash, std::span<const double> point, u64 epoch,
              ClusterId* label);

  /// Cache a classify result computed under `epoch`.
  void insert(u64 hash, std::span<const double> point, u64 epoch,
              ClusterId label);

 private:
  struct Entry {
    u64 hash = 0;
    std::vector<double> point;
    ClusterId label = kNoise;
  };
  struct Shard {
    std::mutex mu;
    u64 epoch = ~0ull;  // epoch the contents belong to
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<u64, std::list<Entry>::iterator> map;
  };

  Shard& shard_of(u64 hash) { return shards_[hash % kShards]; }

  std::array<Shard, kShards> shards_;
};

}  // namespace sdb::serve
