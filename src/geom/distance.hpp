// Distance kernels. Every full distance evaluation is counted so the
// simulated cluster clock can price executor work exactly; hot-path callers
// (the spatial indexes) batch their counts per query and flush once through
// counters::add — same totals, no thread-local lookup per evaluation.
//
// The vectorized leaf-scan kernels live in distance_simd.hpp: runtime-
// dispatched AVX2/AVX-512/NEON strip kernels and range scans over a
// strip-transposed (SoA) layout, bit-identical to the scalar loops here
// (unfused multiply+add, ascending-d accumulation) so eps-membership
// decisions never depend on the host ISA.
#pragma once

#include <algorithm>
#include <bit>
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

/// Position-buffer capacity of strip_scan_exact: 16 blocks (2 KiB of stack),
/// so a kd-tree leaf of up to 16 * kDistanceStrip - 31 points is one
/// range-scan call wherever it starts.
inline constexpr size_t kRangeScanChunk = 16 * kDistanceStrip;

/// Exact eps scan of packed strip positions [begin, end) through the range
/// scan `scan` (simd::detail::kernels().range): calls emit(pos) for each
/// position whose squared distance from q is <= eps2, in ascending order —
/// the scalar loop's hits in the scalar loop's order. One kernel call per
/// range; a range longer than the position buffer is scanned in chunks
/// that end on block boundaries, so no block is loaded twice. Uncounted:
/// the caller charges end - begin distance evaluations, one per row, as the
/// scalar loop does.
template <typename EmitFn>
inline void strip_scan_exact(simd::RangeScanFn scan, std::span<const double> q,
                             double eps2, const double* strips, size_t begin,
                             size_t end, EmitFn&& emit) {
  std::uint32_t pos[kRangeScanChunk];  // [0, hits) written by each call
  while (begin < end) {
    const size_t stop =
        std::min(end, begin - begin % kDistanceStrip + kRangeScanChunk);
    const std::uint32_t hits =
        scan(q.data(), q.size(), eps2, strips, begin, stop, pos);
    for (std::uint32_t k = 0; k < hits; ++k) emit(pos[k]);
    begin = stop;
  }
}

/// Neighbor-budgeted scan of packed strip positions [begin, end) through the
/// dispatched SIMD kernel, with PER-ROW stop-and-count semantics: a per-row
/// loop walks rows in packed order, charges one distance_eval per row it
/// visits, and returns the moment `found` reaches `max_neighbors` —
/// charging the stopping row but nothing after it. This helper reproduces
/// that observable behavior exactly from the kernel's per-segment masks
/// (eps decisions are bit-identical by the kernel contract, so the stopping
/// row is the same row): a segment where the budget cannot fire is charged
/// whole; in the segment where it fires, rows after the stopping match are
/// neither pushed nor charged, even though the kernel already evaluated
/// them — physical over-evaluation inside one strip is an implementation
/// detail of the evaluation, like partial-distance abandonment, and never
/// shows up in counters or output. `push(pos)` receives each matching
/// packed position in ascending order; `found`/`evals` are updated in
/// place. Returns true when the budget fired (caller stops its scan).
/// Requires max_neighbors > 0; `found` may be nonzero from earlier ranges.
template <typename PushFn>
inline bool strip_scan_budgeted(simd::StripKernelFn kernel,
                                std::span<const double> q, double eps2,
                                const double* strips, size_t begin, size_t end,
                                u64 max_neighbors, u64& found, u64& evals,
                                PushFn&& push) {
  const size_t dim = q.size();
  for (size_t i = begin; i < end;) {
    const size_t lane = i % kDistanceStrip;
    const size_t m = std::min(kDistanceStrip - lane, end - i);
    std::uint32_t mask =
        kernel(q.data(), dim, eps2, strip_lane(strips, i, dim), m);
    const u64 hits = static_cast<u64>(std::popcount(mask));
    if (found + hits < max_neighbors) {
      // Budget cannot fire inside this segment: the per-row loop would have
      // visited (and charged) every row of it.
      evals += m;
      found += hits;
      while (mask != 0) {
        push(i + static_cast<size_t>(std::countr_zero(mask)));
        mask &= mask - 1;
      }
      i += m;
      continue;
    }
    // The budget fires at the (max_neighbors - found)-th match of this
    // segment; the per-row loop stops right after that row.
    while (mask != 0) {
      const size_t j = static_cast<size_t>(std::countr_zero(mask));
      push(i + j);
      mask &= mask - 1;
      if (++found >= max_neighbors) {
        evals += static_cast<u64>(j) + 1;  // rows i .. i+j inclusive
        return true;
      }
    }
    evals += m;  // unreachable when hits >= needed, kept for safety
    i += m;
  }
  return false;
}

}  // namespace sdb
