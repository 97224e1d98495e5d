// Flat, cache-friendly storage for d-dimensional points.
//
// All datasets in the paper are dense 10-dimensional real vectors (Table I).
// Points are stored row-major in one contiguous buffer; a point is addressed
// by its global PointId and viewed as std::span<const double>. The global
// index is load-bearing: the paper's block partitioning and SEED mechanism
// are both defined on it.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "util/common.hpp"

namespace sdb {

class PointSet {
 public:
  PointSet() = default;

  /// Create an empty set of `dim`-dimensional points.
  explicit PointSet(int dim) : dim_(dim) {
    SDB_CHECK(dim > 0, "dimension must be positive");
  }

  /// Adopt existing row-major data. data.size() must be a multiple of dim.
  PointSet(int dim, std::vector<double> data) : dim_(dim), data_(std::move(data)) {
    SDB_CHECK(dim > 0, "dimension must be positive");
    SDB_CHECK(data_.size() % static_cast<size_t>(dim) == 0,
              "data size not a multiple of dim");
  }

  /// Append one point (coords.size() must equal dim()).
  PointId add(std::span<const double> coords) {
    SDB_CHECK(static_cast<int>(coords.size()) == dim_, "dimension mismatch");
    // resize + copy rather than insert: GCC 12 reports a false
    // -Wstringop-overflow inside vector::insert once this is inlined.
    const size_t at = data_.size();
    data_.resize(at + coords.size());
    std::copy(coords.begin(), coords.end(), data_.begin() + at);
    return static_cast<PointId>(size()) - 1;
  }

  /// Reserve capacity for n points.
  void reserve(size_t n) { data_.reserve(n * static_cast<size_t>(dim_)); }

  [[nodiscard]] std::span<const double> operator[](PointId i) const {
    SDB_DCHECK(i >= 0 && static_cast<size_t>(i) < size(), "point id out of range");
    return {data_.data() + static_cast<size_t>(i) * dim_,
            static_cast<size_t>(dim_)};
  }

  [[nodiscard]] size_t size() const {
    return dim_ == 0 ? 0 : data_.size() / static_cast<size_t>(dim_);
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] int dim() const { return dim_; }

  /// Raw row-major buffer (n * dim doubles).
  [[nodiscard]] const std::vector<double>& raw() const { return data_; }

  /// Approximate in-memory size in bytes; used by the network cost model to
  /// price broadcasting the dataset + kd-tree to executors.
  [[nodiscard]] u64 byte_size() const { return data_.size() * sizeof(double); }

 private:
  int dim_ = 0;
  std::vector<double> data_;
};

}  // namespace sdb
