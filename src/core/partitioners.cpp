#include "core/partitioners.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace sdb::dbscan {

const char* partitioner_name(PartitionerKind kind) {
  switch (kind) {
    case PartitionerKind::kBlock: return "block";
    case PartitionerKind::kRandom: return "random";
    case PartitionerKind::kGrid: return "grid";
    case PartitionerKind::kKdSplit: return "kd-split";
  }
  return "?";
}

u64 Partitioning::max_part_size() const {
  u64 m = 0;
  for (const auto& p : parts) m = std::max<u64>(m, p.size());
  return m;
}

u64 Partitioning::min_part_size() const {
  u64 m = parts.empty() ? 0 : parts.front().size();
  for (const auto& p : parts) m = std::min<u64>(m, p.size());
  return m;
}

namespace {

void finish_from_owner(Partitioning& out) {
  out.parts.assign(out.num_partitions, {});
  for (PointId i = 0; i < static_cast<PointId>(out.owner.size()); ++i) {
    out.parts[static_cast<size_t>(out.owner[static_cast<size_t>(i)])].push_back(i);
  }
}

Partitioning block_partition(size_t n, u32 parts) {
  Partitioning out;
  out.num_partitions = parts;
  out.owner.resize(n);
  out.ranges.reserve(parts);
  for (u32 p = 0; p < parts; ++p) {
    const auto lo = static_cast<PointId>(n * p / parts);
    const auto hi = static_cast<PointId>(n * (p + 1) / parts);
    out.ranges.emplace_back(lo, hi);
    for (PointId i = lo; i < hi; ++i) {
      out.owner[static_cast<size_t>(i)] = static_cast<PartitionId>(p);
    }
  }
  finish_from_owner(out);
  return out;
}

Partitioning random_partition(size_t n, u32 parts, u64 seed) {
  Partitioning out;
  out.num_partitions = parts;
  out.owner.resize(n);
  // Balanced random assignment: a shuffled block pattern.
  std::vector<PartitionId> pattern(n);
  for (size_t i = 0; i < n; ++i) {
    pattern[i] = static_cast<PartitionId>(n == 0 ? 0 : (i * parts / n));
  }
  Rng rng(derive_seed(seed, "random-partitioner"));
  rng.shuffle(pattern);
  out.owner = std::move(pattern);
  finish_from_owner(out);
  return out;
}

/// Coarse spatial grid: hash each point's cell to a partition. The cell edge
/// targets ~4 cells per partition so cells stay large enough to keep
/// clusters intact.
Partitioning grid_partition(const PointSet& points, u32 parts) {
  const size_t n = points.size();
  const int dim = points.dim();
  Partitioning out;
  out.num_partitions = parts;
  out.owner.resize(n);
  if (n == 0) {
    finish_from_owner(out);
    return out;
  }
  // Bounding box.
  std::vector<double> lo(points[0].begin(), points[0].end());
  std::vector<double> hi = lo;
  for (PointId i = 1; i < static_cast<PointId>(n); ++i) {
    const auto p = points[i];
    for (int d = 0; d < dim; ++d) {
      lo[static_cast<size_t>(d)] = std::min(lo[static_cast<size_t>(d)], p[d]);
      hi[static_cast<size_t>(d)] = std::max(hi[static_cast<size_t>(d)], p[d]);
    }
  }
  // Cells per dimension so total cells ~= 4 * parts.
  const double target_cells = 4.0 * parts;
  const int cells_per_dim = std::max(
      1, static_cast<int>(std::ceil(std::pow(target_cells, 1.0 / dim))));
  for (PointId i = 0; i < static_cast<PointId>(n); ++i) {
    const auto p = points[i];
    u64 h = kFnvSeed;
    for (int d = 0; d < dim; ++d) {
      const double extent = hi[static_cast<size_t>(d)] - lo[static_cast<size_t>(d)];
      int cell = 0;
      if (extent > 0) {
        cell = static_cast<int>((p[d] - lo[static_cast<size_t>(d)]) / extent *
                                cells_per_dim);
        cell = std::clamp(cell, 0, cells_per_dim - 1);
      }
      h ^= static_cast<u64>(cell) + 0x9e3779b97f4a7c15ull;
      h *= kFnvPrime;
    }
    out.owner[static_cast<size_t>(i)] = static_cast<PartitionId>(h % parts);
  }
  finish_from_owner(out);
  return out;
}

/// Recursive median splits on the widest dimension, yielding `parts`
/// spatially-coherent, size-balanced partitions (parts need not be a power
/// of two: each split divides proportionally).
void kd_split(const PointSet& points, std::vector<PointId>& ids, size_t begin,
              size_t end, u32 parts_here, PartitionId first_part,
              std::vector<PartitionId>& owner) {
  if (parts_here <= 1) {
    for (size_t i = begin; i < end; ++i) {
      owner[static_cast<size_t>(ids[i])] = first_part;
    }
    return;
  }
  const int dim = points.dim();
  // Widest dimension over [begin, end).
  std::vector<double> lo(static_cast<size_t>(dim),
                         std::numeric_limits<double>::infinity());
  std::vector<double> hi(static_cast<size_t>(dim),
                         -std::numeric_limits<double>::infinity());
  for (size_t i = begin; i < end; ++i) {
    const auto p = points[ids[i]];
    for (int d = 0; d < dim; ++d) {
      lo[static_cast<size_t>(d)] = std::min(lo[static_cast<size_t>(d)], p[d]);
      hi[static_cast<size_t>(d)] = std::max(hi[static_cast<size_t>(d)], p[d]);
    }
  }
  int best = 0;
  double spread = -1;
  for (int d = 0; d < dim; ++d) {
    if (hi[static_cast<size_t>(d)] - lo[static_cast<size_t>(d)] > spread) {
      spread = hi[static_cast<size_t>(d)] - lo[static_cast<size_t>(d)];
      best = d;
    }
  }
  const u32 left_parts = parts_here / 2;
  const u32 right_parts = parts_here - left_parts;
  const size_t mid =
      begin + (end - begin) * left_parts / parts_here;
  std::nth_element(ids.begin() + static_cast<long>(begin),
                   ids.begin() + static_cast<long>(mid),
                   ids.begin() + static_cast<long>(end),
                   [&](PointId a, PointId b) {
                     return points[a][best] < points[b][best];
                   });
  kd_split(points, ids, begin, mid, left_parts, first_part, owner);
  kd_split(points, ids, mid, end, right_parts,
           first_part + static_cast<PartitionId>(left_parts), owner);
}

Partitioning kdsplit_partition(const PointSet& points, u32 parts) {
  const size_t n = points.size();
  Partitioning out;
  out.num_partitions = parts;
  out.owner.assign(n, 0);
  std::vector<PointId> ids(n);
  std::iota(ids.begin(), ids.end(), PointId{0});
  kd_split(points, ids, 0, n, parts, 0, out.owner);
  finish_from_owner(out);
  return out;
}

}  // namespace

Partitioning make_partitioning(PartitionerKind kind, const PointSet& points,
                               u32 num_partitions, u64 seed) {
  SDB_CHECK(num_partitions > 0, "need at least one partition");
  switch (kind) {
    case PartitionerKind::kBlock:
      return block_partition(points.size(), num_partitions);
    case PartitionerKind::kRandom:
      return random_partition(points.size(), num_partitions, seed);
    case PartitionerKind::kGrid:
      return grid_partition(points, num_partitions);
    case PartitionerKind::kKdSplit:
      return kdsplit_partition(points, num_partitions);
  }
  SDB_CHECK(false, "unknown partitioner");
  return {};
}

}  // namespace sdb::dbscan
