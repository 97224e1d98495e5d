// Distance kernels. Every full distance evaluation is counted so the
// simulated cluster clock can price executor work exactly; hot-path callers
// (the spatial indexes) batch their counts per query and flush once through
// counters::add — same totals, no thread-local lookup per evaluation.
//
// The vectorized leaf-scan kernels live in distance_simd.hpp: runtime-
// dispatched scalar/AVX2/AVX-512/NEON range scans over a strip-transposed
// (SoA) layout, bit-identical to the scalar loops here (unfused
// multiply+add, ascending-d accumulation) so eps-membership decisions never
// depend on the host ISA. strip_scan below drives the range scan for every
// row scan: each kd-tree and brute-force range query, exact or budgeted,
// and each kNN cutoff filter.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>

#include "geom/distance_simd.hpp"
#include "util/counters.hpp"

namespace sdb {

/// Squared Euclidean distance, uncounted — for callers that tally
/// distance_evals themselves and flush in a batch (see counters::add).
inline double squared_distance_uncounted(std::span<const double> a,
                                         std::span<const double> b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

/// Squared Euclidean distance between two points of equal dimension.
/// Counted as one distance evaluation.
inline double squared_distance(std::span<const double> a,
                               std::span<const double> b) {
  const double s = squared_distance_uncounted(a, b);
  counters::distance_evals(1);
  return s;
}

/// Euclidean distance.
inline double distance(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(squared_distance(a, b));
}

/// True iff the two points are within `eps` of each other.
inline bool within_eps(std::span<const double> a, std::span<const double> b,
                       double eps) {
  return squared_distance(a, b) <= eps * eps;
}

// ---------------------------------------------------------------------------
// Strip-transposed (SoA) layout helpers — the layout the SIMD kernels scan.
// See distance_simd.hpp for the full layout + determinism contract. Global
// position i lives in block i / kDistanceStrip at lane i % kDistanceStrip;
// within a block coordinates are dimension-major with lane stride
// kDistanceStrip.
// ---------------------------------------------------------------------------

/// Buffer length (in doubles) for n points of dimension dim, padded to whole
/// strip blocks. Builders zero the final partial block's padding lanes so
/// vector loads never touch uninitialized memory.
inline constexpr size_t strip_padded_len(size_t n, size_t dim) {
  return ((n + kDistanceStrip - 1) / kDistanceStrip) * kDistanceStrip * dim;
}

/// Address of position `pos`'s lane within its block.
inline const double* strip_lane(const double* base, size_t pos, size_t dim) {
  return base + (pos / kDistanceStrip) * (kDistanceStrip * dim) +
         pos % kDistanceStrip;
}
inline double* strip_lane(double* base, size_t pos, size_t dim) {
  return base + (pos / kDistanceStrip) * (kDistanceStrip * dim) +
         pos % kDistanceStrip;
}

/// Scatter one coordinate row into its strip lane (builder-side transpose).
inline void strip_store_row(double* base, size_t pos,
                            std::span<const double> p) {
  double* lane = strip_lane(base, pos, p.size());
  for (size_t d = 0; d < p.size(); ++d) lane[d * kDistanceStrip] = p[d];
}

/// Position-buffer capacity of strip_scan: 16 blocks (2 KiB of stack), so a
/// kd-tree leaf of up to 16 * kDistanceStrip - 31 points is one range-scan
/// call wherever it starts.
inline constexpr size_t kRangeScanChunk = 16 * kDistanceStrip;

/// The eps scan of packed strip positions [begin, end) through the range
/// scan `scan` (simd::detail::kernels().range), under a budget of `left`
/// more hits. Calls emit(pos) for each position whose squared distance from
/// q is <= eps2, in ascending order — a per-row loop's hits in its order —
/// until `left` hits were emitted, and subtracts the emitted count from
/// `left`. Returns the rows to charge as distance_evals, one per row the
/// per-row loop would visit: end - begin when the budget does not fill;
/// when it fills, the rows up to and including the filling position, so
/// the rows the kernel evaluated past it are never charged (like partial-
/// distance abandonment, an implementation detail of the evaluation).
///
/// One kernel call per range; a range longer than the position buffer is
/// scanned in chunks that end on block boundaries, so no block is loaded
/// twice, and no chunk is scanned after the one where the budget fills.
/// The budget is checked once per call, not once per hit. Exact scans pass
/// left = ~u64{0}, which no scan fills. Requires left > 0.
template <typename EmitFn>
inline size_t strip_scan(simd::RangeScanFn scan, std::span<const double> q,
                         double eps2, const double* strips, size_t begin,
                         size_t end, u64& left, EmitFn&& emit) {
  std::uint32_t pos[kRangeScanChunk];  // [0, hits) written by each call
  for (size_t at = begin; at < end;) {
    const size_t stop =
        std::min(end, at - at % kDistanceStrip + kRangeScanChunk);
    const std::uint32_t hits =
        scan(q.data(), q.size(), eps2, strips, at, stop, pos);
    if (hits >= left) {
      // The budget fills at this call's left-th hit.
      const size_t filled = pos[left - 1];
      for (u64 k = 0; k < left; ++k) emit(pos[k]);
      left = 0;
      return filled - begin + 1;
    }
    for (std::uint32_t k = 0; k < hits; ++k) emit(pos[k]);
    left -= hits;
    at = stop;
  }
  return end - begin;
}

}  // namespace sdb
