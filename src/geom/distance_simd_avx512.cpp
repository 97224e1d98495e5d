// AVX-512F range scan and box kernel. Compiled with -mavx512f ONLY (no
// -mfma implied contraction: -ffp-contract=off is also pinned) so the
// accumulation stays an unfused multiply + add, bit-identical to the scalar
// fallback — see the determinism contract in distance_simd.hpp. Relative to
// the AVX2 variant this halves the vector op count (8 doubles per register,
// a full 32-lane strip in 4 accumulators) and replaces the movemask shuffle
// dance with native mask registers: _mm512_cmp_pd_mask yields the decision
// bits directly. The range scan runs the whole-block code on every block of
// its range and writes the hit positions with compress stores, no mask
// walk. The box kernel tests a wide node's 8 child
// boxes in one 8-lane accumulator.
//
// Only selected when __builtin_cpu_supports("avx512f") at dispatch time,
// so building this TU on any x86-64 toolchain is safe for older hosts.
#include "geom/distance_simd.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <bit>
#include <limits>

namespace sdb::simd::detail {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One whole 32-lane block: four 8-wide accumulators, fully unrolled so they
/// live in registers. Lanes in `live` accumulate from 0; the others start
/// at +inf, so they never hold the abandonment min down, and are masked out
/// of the result (+inf <= eps2 holds when eps2 itself is +inf). The
/// abandonment probe — a 3-min tree + one mask compare, cheap against the 4
/// loads the skipped dimensions would have cost — runs on the shared
/// abandon_probe_due schedule.
inline std::uint32_t block_avx512(const double* q, size_t dim, double eps2,
                                  const double* lanes, std::uint32_t live) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d inf = _mm512_set1_pd(kInf);
  __m512d a0 = _mm512_mask_mov_pd(inf, static_cast<__mmask8>(live), zero);
  __m512d a1 =
      _mm512_mask_mov_pd(inf, static_cast<__mmask8>(live >> 8), zero);
  __m512d a2 =
      _mm512_mask_mov_pd(inf, static_cast<__mmask8>(live >> 16), zero);
  __m512d a3 =
      _mm512_mask_mov_pd(inf, static_cast<__mmask8>(live >> 24), zero);
  const __m512d veps = _mm512_set1_pd(eps2);
  for (size_t d = 0; d < dim; ++d) {
    const __m512d vq = _mm512_set1_pd(q[d]);
    const double* row = lanes + d * kDistanceStrip;
    const __m512d d0 = _mm512_sub_pd(vq, _mm512_loadu_pd(row + 0));
    const __m512d d1 = _mm512_sub_pd(vq, _mm512_loadu_pd(row + 8));
    const __m512d d2 = _mm512_sub_pd(vq, _mm512_loadu_pd(row + 16));
    const __m512d d3 = _mm512_sub_pd(vq, _mm512_loadu_pd(row + 24));
    a0 = _mm512_add_pd(a0, _mm512_mul_pd(d0, d0));
    a1 = _mm512_add_pd(a1, _mm512_mul_pd(d1, d1));
    a2 = _mm512_add_pd(a2, _mm512_mul_pd(d2, d2));
    a3 = _mm512_add_pd(a3, _mm512_mul_pd(d3, d3));
    if (abandon_probe_due(d, dim)) {
      const __m512d m =
          _mm512_min_pd(_mm512_min_pd(a0, a1), _mm512_min_pd(a2, a3));
      if (_mm512_cmp_pd_mask(m, veps, _CMP_LE_OQ) == 0) {
        return 0;  // every lane's partial sum already exceeds eps^2
      }
    }
  }
  std::uint32_t mask = 0;
  mask |= static_cast<std::uint32_t>(_mm512_cmp_pd_mask(a0, veps, _CMP_LE_OQ));
  mask |= static_cast<std::uint32_t>(_mm512_cmp_pd_mask(a1, veps, _CMP_LE_OQ))
          << 8;
  mask |= static_cast<std::uint32_t>(_mm512_cmp_pd_mask(a2, veps, _CMP_LE_OQ))
          << 16;
  mask |= static_cast<std::uint32_t>(_mm512_cmp_pd_mask(a3, veps, _CMP_LE_OQ))
          << 24;
  return mask & live;
}

}  // namespace

std::uint32_t range_avx512(const double* q, size_t dim, double eps2,
                           const double* strips, size_t begin, size_t end,
                           std::uint32_t* out) {
  if (begin >= end) return 0;
  std::uint32_t* o = out;
  const __m512i lane_ids = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                             10, 11, 12, 13, 14, 15);
  for (size_t pos = begin - begin % kDistanceStrip; pos < end;
       pos += kDistanceStrip) {
    const std::uint32_t mask =
        block_avx512(q, dim, eps2, strips + pos * dim,
                     block_lanes(begin, end, pos));
    if (mask == 0) continue;
    // Compress stores write exactly the selected positions, in lane order.
    const __m512i lo = _mm512_add_epi32(
        _mm512_set1_epi32(static_cast<int>(pos)), lane_ids);
    const __m512i hi = _mm512_add_epi32(lo, _mm512_set1_epi32(16));
    const auto lo_mask = static_cast<__mmask16>(mask);
    const auto hi_mask = static_cast<__mmask16>(mask >> 16);
    _mm512_mask_compressstoreu_epi32(o, lo_mask, lo);
    o += std::popcount(static_cast<unsigned>(lo_mask));
    _mm512_mask_compressstoreu_epi32(o, hi_mask, hi);
    o += std::popcount(static_cast<unsigned>(hi_mask));
  }
  return static_cast<std::uint32_t>(o - out);
}

void box_avx512(const double* q, size_t dim, const double* boxes,
                double* d2) {
  const __m512d zero = _mm512_setzero_pd();
  __m512d s = zero;
  for (size_t d = 0; d < dim; ++d) {
    const __m512d vq = _mm512_set1_pd(q[d]);
    const double* lo = boxes + d * 2 * kBoxFanout;
    const __m512d e = _mm512_max_pd(
        _mm512_max_pd(_mm512_sub_pd(_mm512_loadu_pd(lo), vq),
                      _mm512_sub_pd(vq, _mm512_loadu_pd(lo + kBoxFanout))),
        zero);
    s = _mm512_add_pd(s, _mm512_mul_pd(e, e));
  }
  _mm512_storeu_pd(d2, s);
}

}  // namespace sdb::simd::detail

#endif  // defined(__AVX512F__)
