// Open-addressing hash set/map for non-negative integer keys.
//
// The paper argues (Section III.B) that the executor's visited/membership
// structure must be O(1) per operation (Java Hashtable). This is the C++
// equivalent used on the hot path: linear-probing tables with power-of-two
// capacity, tombstone-free (no erase needed by the algorithm), and an
// explicit empty sentinel. `bench_micro_datastructs` compares it against
// std::unordered_set and sorted-vector alternatives.
#pragma once

#include <vector>

#include "util/common.hpp"

namespace sdb {

namespace detail {

/// The capacity rule of both tables: the smallest power of two, at least
/// 16, that holds `expected` keys below the 0.7 load factor they grow at.
inline size_t flat_capacity_for(size_t expected) {
  size_t cap = 16;
  while (cap * 7 < expected * 10) cap *= 2;
  return cap;
}

}  // namespace detail

/// Hash set of non-negative i64 keys (PointId). Insert/contains only.
class FlatIdSet {
 public:
  explicit FlatIdSet(size_t expected = 16) {
    rehash(detail::flat_capacity_for(expected));
  }

  /// Insert `key`; returns true if newly inserted.
  bool insert(i64 key) {
    SDB_DCHECK(key >= 0, "FlatIdSet keys must be non-negative");
    if ((size_ + 1) * 10 >= slots_.size() * 7) rehash(slots_.size() * 2);
    size_t i = probe_start(key);
    for (;;) {
      i64& slot = slots_[i];
      if (slot == kEmpty) {
        slot = key;
        ++size_;
        return true;
      }
      if (slot == key) return false;
      i = (i + 1) & mask_;
    }
  }

  [[nodiscard]] bool contains(i64 key) const {
    size_t i = probe_start(key);
    for (;;) {
      const i64 slot = slots_[i];
      if (slot == kEmpty) return false;
      if (slot == key) return true;
      i = (i + 1) & mask_;
    }
  }

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
  }

 private:
  static constexpr i64 kEmpty = -1;

  [[nodiscard]] size_t probe_start(i64 key) const {
    // Fibonacci hashing of the key.
    const u64 h = static_cast<u64>(key) * 11400714819323198485ull;
    return static_cast<size_t>(h >> shift_) & mask_;
  }

  void rehash(size_t new_cap) {
    std::vector<i64> old = std::move(slots_);
    slots_.assign(new_cap, kEmpty);
    mask_ = new_cap - 1;
    // compute shift from capacity: log2(new_cap)
    unsigned bits = 0;
    for (size_t c = new_cap; c > 1; c >>= 1) ++bits;
    shift_ = 64 - bits;
    size_ = 0;
    for (const i64 k : old) {
      if (k != kEmpty) insert(k);
    }
  }

  std::vector<i64> slots_;
  size_t mask_ = 0;
  unsigned shift_ = 58;
  size_t size_ = 0;
};

/// Hash map from non-negative i64 keys to V. Insert/find/overwrite only.
template <typename V>
class FlatIdMap {
 public:
  explicit FlatIdMap(size_t expected = 16) {
    rehash(detail::flat_capacity_for(expected));
  }

  /// Insert or overwrite. Returns true if the key was newly inserted.
  bool put(i64 key, V value) {
    SDB_DCHECK(key >= 0, "FlatIdMap keys must be non-negative");
    if ((size_ + 1) * 10 >= keys_.size() * 7) rehash(keys_.size() * 2);
    size_t i = probe_start(key);
    for (;;) {
      i64& slot = keys_[i];
      if (slot == kEmpty) {
        slot = key;
        values_[i] = std::move(value);
        ++size_;
        return true;
      }
      if (slot == key) {
        values_[i] = std::move(value);
        return false;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Pointer to the value for `key`, or nullptr.
  [[nodiscard]] const V* find(i64 key) const {
    size_t i = probe_start(key);
    for (;;) {
      const i64 slot = keys_[i];
      if (slot == kEmpty) return nullptr;
      if (slot == key) return &values_[i];
      i = (i + 1) & mask_;
    }
  }

  [[nodiscard]] V* find(i64 key) {
    return const_cast<V*>(static_cast<const FlatIdMap*>(this)->find(key));
  }

  [[nodiscard]] size_t size() const { return size_; }

 private:
  static constexpr i64 kEmpty = -1;

  [[nodiscard]] size_t probe_start(i64 key) const {
    const u64 h = static_cast<u64>(key) * 11400714819323198485ull;
    return static_cast<size_t>(h >> shift_) & mask_;
  }

  void rehash(size_t new_cap) {
    std::vector<i64> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    keys_.assign(new_cap, kEmpty);
    values_.assign(new_cap, V{});
    mask_ = new_cap - 1;
    unsigned bits = 0;
    for (size_t c = new_cap; c > 1; c >>= 1) ++bits;
    shift_ = 64 - bits;
    size_ = 0;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kEmpty) put(old_keys[i], std::move(old_values[i]));
    }
  }

  std::vector<i64> keys_;
  std::vector<V> values_;
  size_t mask_ = 0;
  unsigned shift_ = 58;
  size_t size_ = 0;
};

}  // namespace sdb
