// The RDD the paper's pipeline runs: a named, partitioned dataset whose
// partition p is produced by a generator function.
//
// compute(p) must be deterministic. The scheduler recovers a failed task
// attempt by computing its partition again — lineage recomputation of a
// source RDD — so a rerun must yield the same partition.
//
// Transformations and wide (shuffle) dependencies are absent. Algorithm 2's
// RDD carries partition indices only (the data plane is the broadcast
// kd-tree), and the whole point of the paper's algorithm is that
// DBSCAN-with-SEEDs needs no shuffle. The MapReduce substrate
// (src/mapreduce) is where shuffles live, as the paper's baseline.
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace sdb::minispark {

template <typename T>
class Rdd {
 public:
  using Fn = std::function<std::vector<T>(u32)>;

  Rdd(Fn fn, u32 partitions, std::string name = "generator")
      : name_(std::move(name)),
        num_partitions_(std::max<u32>(1, partitions)),
        fn_(std::move(fn)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] u32 num_partitions() const { return num_partitions_; }

  /// Compute partition `p` from scratch: every call runs the generator.
  [[nodiscard]] std::vector<T> compute(u32 p) const { return fn_(p); }

 private:
  std::string name_;
  u32 num_partitions_;
  Fn fn_;
};

}  // namespace sdb::minispark
