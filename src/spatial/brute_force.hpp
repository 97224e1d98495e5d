// Naive O(n) per query index — the paper's "O(n^2) linear search" baseline.
//
// Range queries, exact or budgeted, stream the same strip-transposed (SoA)
// layout and runtime-dispatched range scan as the kd-tree leaf scan (one
// strip_scan call, see distance.hpp): the constructor keeps a
// strip-transposed copy of the coordinates, built once, so every query is
// one long run of vertical-reduction blocks with no id indirection at all.
#pragma once

#include <vector>

#include "spatial/spatial_index.hpp"

namespace sdb {

class BruteForceIndex final : public SpatialIndex {
 public:
  /// The index keeps a reference to `points` AND snapshots the coordinates
  /// into its strip-transposed buffer at construction; the caller must keep
  /// the PointSet alive and unmutated for the index's lifetime (a mutation
  /// after build would not be observed — the same immutability assumption
  /// as KdTree's packed layout).
  explicit BruteForceIndex(const PointSet& points);

  void range_query_budgeted(std::span<const double> q, double eps,
                            const QueryBudget& budget,
                            std::vector<PointId>& out) const override;

  /// Unified kNN (see SpatialIndex::knn_query). Always exact: brute force
  /// has no nodes for max_nodes to bound. Scans every row (n distance_evals,
  /// zero tree_nodes) with the range scan as a cutoff filter once the heap
  /// is full — the same idiom as the kd-tree leaf scan.
  void knn_query(std::span<const double> q, size_t k,
                 const QueryBudget& budget,
                 std::vector<KnnHit>& out) const override;

  [[nodiscard]] size_t size() const override { return points_.size(); }
  [[nodiscard]] u64 byte_size() const override {
    return points_.byte_size() + strips_.size() * sizeof(double);
  }
  [[nodiscard]] const char* name() const override { return "brute-force"; }

 private:
  const PointSet& points_;
  std::vector<double> strips_;  // strip-transposed coords in id order,
                                // padded to whole blocks (padding zeroed)
};

}  // namespace sdb
