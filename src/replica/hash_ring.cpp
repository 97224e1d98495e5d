#include "replica/hash_ring.hpp"

#include <algorithm>

#include "util/fnv.hpp"

namespace sdb::replica {

namespace {

/// 64-bit avalanche finalizer (murmur3 fmix64). Raw FNV-1a mixes each input
/// byte into the LOW bits well but leaves the high bits weak for short
/// inputs — and ring placement is decided by u64 ORDER, i.e. the high bits.
/// Without this the vnode positions cluster badly enough to skew node
/// shares by 2x+.
constexpr u64 avalanche(u64 h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}
}  // namespace

u64 ConsistentHashRing::hash_bytes(const void* data, size_t size) {
  return avalanche(fnv1a(data, size));
}

u64 ConsistentHashRing::hash_string(const std::string& s) {
  return hash_bytes(s.data(), s.size());
}

u64 ConsistentHashRing::hash_point(std::span<const double> coords) {
  return hash_bytes(coords.data(), coords.size_bytes());
}

ConsistentHashRing::ConsistentHashRing(u32 vnodes) : vnodes_(vnodes) {
  SDB_CHECK(vnodes > 0, "hash ring needs at least one vnode per member");
}

void ConsistentHashRing::add_node(const std::string& id) {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), id);
  if (it != nodes_.end() && *it == id) return;
  nodes_.insert(it, id);
  rebuild();
}

void ConsistentHashRing::remove_node(const std::string& id) {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), id);
  if (it == nodes_.end() || *it != id) return;
  nodes_.erase(it);
  rebuild();
}

void ConsistentHashRing::rebuild() {
  ring_.clear();
  ring_.reserve(nodes_.size() * vnodes_);
  for (u32 n = 0; n < static_cast<u32>(nodes_.size()); ++n) {
    for (u32 k = 0; k < vnodes_; ++k) {
      const std::string vnode = nodes_[n] + "#" + std::to_string(k);
      ring_.emplace_back(hash_string(vnode), n);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

const std::string& ConsistentHashRing::node_for(u64 key) const {
  SDB_CHECK(!ring_.empty(), "node_for on an empty hash ring");
  auto it = std::upper_bound(ring_.begin(), ring_.end(),
                             std::make_pair(key, ~u32{0}));
  if (it == ring_.end()) it = ring_.begin();  // clockwise wrap
  return nodes_[it->second];
}

std::vector<std::string> ConsistentHashRing::nodes_for(u64 key,
                                                       size_t n) const {
  SDB_CHECK(!ring_.empty(), "nodes_for on an empty hash ring");
  std::vector<std::string> out;
  const size_t want = std::min(n, nodes_.size());
  size_t pos = static_cast<size_t>(
      std::upper_bound(ring_.begin(), ring_.end(),
                       std::make_pair(key, ~u32{0})) -
      ring_.begin());
  for (size_t walked = 0; out.size() < want && walked < ring_.size();
       ++walked, ++pos) {
    const std::string& id = nodes_[ring_[pos % ring_.size()].second];
    if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
  }
  return out;
}

}  // namespace sdb::replica
