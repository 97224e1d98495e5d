#include "util/rng.hpp"

#include <algorithm>

#include "util/fnv.hpp"

namespace sdb {
namespace {

// SplitMix64 finalizer: decorrelates derived seeds.
u64 splitmix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

u64 derive_seed(u64 parent, std::string_view stream) {
  return splitmix64(parent ^ splitmix64(fnv1a(stream.data(), stream.size())));
}

Rng Rng::fork(std::string_view stream) const {
  // Fork from the original construction seed surrogate: hash the engine's
  // current state indirectly via a const copy draw. To keep fork() const and
  // deterministic regardless of how many draws happened, we derive from a
  // snapshot of the engine state.
  std::mt19937_64 copy = engine_;
  const u64 snapshot = copy();
  return Rng(derive_seed(snapshot, stream));
}

}  // namespace sdb
