// Open-addressing hash set for non-negative integer keys.
//
// Linear probing with power-of-two capacity, tombstone-free (no erase), and
// an explicit empty sentinel. `core/incremental` keeps its sparse per-update
// point sets in it. The executor sweep does not: it keeps one state word per
// point id (core/partition_bfs.hpp). `bench_micro_datastructs` compares
// both against std::unordered_set and a byte array on the paper's
// Section III.B visited-table workload.
#pragma once

#include <vector>

#include "util/common.hpp"

namespace sdb {

/// Hash set of non-negative i64 keys (PointId). Insert/contains only.
class FlatIdSet {
 public:
  explicit FlatIdSet(size_t expected = 16) {
    // The smallest power of two, at least 16, that holds `expected` keys
    // below the 0.7 load factor the set grows at.
    size_t cap = 16;
    while (cap * 7 < expected * 10) cap *= 2;
    rehash(cap);
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

}  // namespace sdb
