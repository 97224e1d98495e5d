// 64-bit FNV-1a: the one checksum for every byte the system stores, ships
// or fingerprints — DFS blocks and manifest, job-checkpoint records, the
// registry WAL and its snapshots, serving snapshots, replication frames,
// job fingerprints, fault-log and graph digests. The sealed-buffer and frame
// shapes built on it are in util/serialize.hpp.
//
// Inline on purpose: MiniDfs::read checksums every block it reads, and most
// of a block read is this loop.
#pragma once

#include <cstddef>

#include "util/common.hpp"

namespace sdb {

/// The starting state of every FNV-1a in the system. It is NOT the published
/// offset basis (14695981039346656037, one digit longer): it drops the last
/// digit. Every stored checksum and every pinned golden depends on it, so it
/// cannot change without rewriting them all.
inline constexpr u64 kFnvSeed = 1469598103934665603ull;
/// The 64-bit FNV prime.
inline constexpr u64 kFnvPrime = 1099511628211ull;

/// FNV-1a over `size` bytes at `data`, continuing from state `h`.
inline u64 fnv1a(const void* data, size_t size, u64 h = kFnvSeed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Fold the object representation of `v` into `h`.
template <typename T>
u64 fnv1a_value(u64 h, const T& v) {
  return fnv1a(&v, sizeof(v), h);
}

}  // namespace sdb
