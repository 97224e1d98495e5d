// AVX2 range scan and box kernel. Compiled with -mavx2 ONLY (no -mfma) and
// -ffp-contract=off: the accumulation must stay an unfused multiply + add so
// every lane's partial sums are bit-identical to the scalar fallback — a
// fused multiply-add's single rounding would flip exactly-eps boundary
// pairs. The speedup comes from three places: the lanes (4 doubles per
// vector), the unit-stride SoA loads, and partial-distance abandonment —
// the kernel walks dimensions OUTERMOST across all lanes of the strip and
// stops fetching further dimension rows once every lane's partial sum
// already exceeds eps^2. Squared-distance accumulation is monotone
// (non-negative terms, and IEEE round-to-nearest addition of a non-negative
// value never decreases the sum), so "partial > eps^2" decides the final
// eps test exactly; abandonment changes how much memory the kernel reads —
// decisive when the strip working set exceeds cache — never the answer.
// The range scan runs the whole-block code on every block of its range and
// walks each block's mask into positions. The box kernel tests a wide
// node's 8 child boxes in two 4-lane accumulators.
//
// Only selected when __builtin_cpu_supports("avx2") at dispatch time, so
// building this TU on any x86-64 toolchain is safe even for older hosts.
#include "geom/distance_simd.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>
#include <limits>

namespace sdb::simd::detail {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Start values of one 4-lane group: 0 on the lanes whose bit is set in the
/// low 4 bits of `live`, +inf on the others.
inline __m256d start_values(std::uint32_t live) {
  const __m256i bit = _mm256_setr_epi64x(1, 2, 4, 8);
  const __m256i sel = _mm256_and_si256(
      _mm256_set1_epi64x(static_cast<long long>(live & 0xf)), bit);
  const __m256d on = _mm256_castsi256_pd(_mm256_cmpeq_epi64(sel, bit));
  return _mm256_andnot_pd(on, _mm256_set1_pd(kInf));
}

/// One whole 32-lane block: eight 4-wide accumulators, fully unrolled so
/// they live in registers. Lanes in `live` accumulate from 0; the others
/// start at +inf, so they never hold the abandonment min down, and are
/// masked out of the result (+inf <= eps2 holds when eps2 itself is +inf).
/// The abandonment probe (a 7-min tree + one compare + movemask, cheap
/// against the 8 loads the skipped dimensions would have cost) runs on the
/// shared dense-early/geometric-tail schedule — abandon_probe_due in
/// distance_simd.hpp.
inline std::uint32_t block_avx2(const double* q, size_t dim, double eps2,
                                const double* lanes, std::uint32_t live) {
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
  __m256d a4 = _mm256_setzero_pd(), a5 = _mm256_setzero_pd();
  __m256d a6 = _mm256_setzero_pd(), a7 = _mm256_setzero_pd();
  if (live != ~std::uint32_t{0}) {
    // First or last block of a range scan.
    a0 = start_values(live);
    a1 = start_values(live >> 4);
    a2 = start_values(live >> 8);
    a3 = start_values(live >> 12);
    a4 = start_values(live >> 16);
    a5 = start_values(live >> 20);
    a6 = start_values(live >> 24);
    a7 = start_values(live >> 28);
  }
  const __m256d veps = _mm256_set1_pd(eps2);
  for (size_t d = 0; d < dim; ++d) {
    const __m256d vq = _mm256_broadcast_sd(q + d);
    const double* row = lanes + d * kDistanceStrip;
    const __m256d d0 = _mm256_sub_pd(vq, _mm256_loadu_pd(row + 0));
    const __m256d d1 = _mm256_sub_pd(vq, _mm256_loadu_pd(row + 4));
    const __m256d d2 = _mm256_sub_pd(vq, _mm256_loadu_pd(row + 8));
    const __m256d d3 = _mm256_sub_pd(vq, _mm256_loadu_pd(row + 12));
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(d0, d0));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(d1, d1));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(d2, d2));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(d3, d3));
    const __m256d d4 = _mm256_sub_pd(vq, _mm256_loadu_pd(row + 16));
    const __m256d d5 = _mm256_sub_pd(vq, _mm256_loadu_pd(row + 20));
    const __m256d d6 = _mm256_sub_pd(vq, _mm256_loadu_pd(row + 24));
    const __m256d d7 = _mm256_sub_pd(vq, _mm256_loadu_pd(row + 28));
    a4 = _mm256_add_pd(a4, _mm256_mul_pd(d4, d4));
    a5 = _mm256_add_pd(a5, _mm256_mul_pd(d5, d5));
    a6 = _mm256_add_pd(a6, _mm256_mul_pd(d6, d6));
    a7 = _mm256_add_pd(a7, _mm256_mul_pd(d7, d7));
    if (abandon_probe_due(d, dim)) {
      const __m256d m01 = _mm256_min_pd(a0, a1);
      const __m256d m23 = _mm256_min_pd(a2, a3);
      const __m256d m45 = _mm256_min_pd(a4, a5);
      const __m256d m67 = _mm256_min_pd(a6, a7);
      const __m256d m = _mm256_min_pd(_mm256_min_pd(m01, m23),
                                      _mm256_min_pd(m45, m67));
      if (_mm256_movemask_pd(_mm256_cmp_pd(m, veps, _CMP_LE_OQ)) == 0) {
        return 0;  // every lane's partial sum already exceeds eps^2
      }
    }
  }
  std::uint32_t mask = 0;
  mask |= static_cast<std::uint32_t>(
      _mm256_movemask_pd(_mm256_cmp_pd(a0, veps, _CMP_LE_OQ)));
  mask |= static_cast<std::uint32_t>(
              _mm256_movemask_pd(_mm256_cmp_pd(a1, veps, _CMP_LE_OQ))) << 4;
  mask |= static_cast<std::uint32_t>(
              _mm256_movemask_pd(_mm256_cmp_pd(a2, veps, _CMP_LE_OQ))) << 8;
  mask |= static_cast<std::uint32_t>(
              _mm256_movemask_pd(_mm256_cmp_pd(a3, veps, _CMP_LE_OQ))) << 12;
  mask |= static_cast<std::uint32_t>(
              _mm256_movemask_pd(_mm256_cmp_pd(a4, veps, _CMP_LE_OQ))) << 16;
  mask |= static_cast<std::uint32_t>(
              _mm256_movemask_pd(_mm256_cmp_pd(a5, veps, _CMP_LE_OQ))) << 20;
  mask |= static_cast<std::uint32_t>(
              _mm256_movemask_pd(_mm256_cmp_pd(a6, veps, _CMP_LE_OQ))) << 24;
  mask |= static_cast<std::uint32_t>(
              _mm256_movemask_pd(_mm256_cmp_pd(a7, veps, _CMP_LE_OQ))) << 28;
  return mask & live;
}

}  // namespace

std::uint32_t range_avx2(const double* q, size_t dim, double eps2,
                         const double* strips, size_t begin, size_t end,
                         std::uint32_t* out) {
  if (begin >= end) return 0;
  std::uint32_t* o = out;
  for (size_t pos = begin - begin % kDistanceStrip; pos < end;
       pos += kDistanceStrip) {
    std::uint32_t mask = block_avx2(q, dim, eps2, strips + pos * dim,
                                    block_lanes(begin, end, pos));
    while (mask != 0) {
      *o++ = static_cast<std::uint32_t>(pos) +
             static_cast<std::uint32_t>(std::countr_zero(mask));
      mask &= mask - 1;
    }
  }
  return static_cast<std::uint32_t>(o - out);
}

void box_avx2(const double* q, size_t dim, const double* boxes, double* d2) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d s0 = zero;
  __m256d s1 = zero;
  for (size_t d = 0; d < dim; ++d) {
    const __m256d vq = _mm256_broadcast_sd(q + d);
    const double* lo = boxes + d * 2 * kBoxFanout;
    const double* hi = lo + kBoxFanout;
    const __m256d e0 = _mm256_max_pd(
        _mm256_max_pd(_mm256_sub_pd(_mm256_loadu_pd(lo), vq),
                      _mm256_sub_pd(vq, _mm256_loadu_pd(hi))),
        zero);
    const __m256d e1 = _mm256_max_pd(
        _mm256_max_pd(_mm256_sub_pd(_mm256_loadu_pd(lo + 4), vq),
                      _mm256_sub_pd(vq, _mm256_loadu_pd(hi + 4))),
        zero);
    s0 = _mm256_add_pd(s0, _mm256_mul_pd(e0, e0));
    s1 = _mm256_add_pd(s1, _mm256_mul_pd(e1, e1));
  }
  _mm256_storeu_pd(d2, s0);
  _mm256_storeu_pd(d2 + 4, s1);
}

}  // namespace sdb::simd::detail

#endif  // defined(__AVX2__)
