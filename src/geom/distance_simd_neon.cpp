// NEON (aarch64) strip kernel. Same contract as the AVX2 variant: unfused
// multiply + add in ascending-d order per lane (-ffp-contract=off, and no
// vfma intrinsics) so eps-decision masks are bit-identical to the scalar
// fallback, plus partial-distance abandonment — every second dimension the
// pair checks whether both partial sums already exceed eps^2 and stops
// fetching further dimension rows if so (the accumulation is monotone, so
// the decision cannot change). float64x2_t gives 2 lanes; 2-wide loads
// never read past `count`, so no masked tail load is needed. The box kernel
// tests a wide node's 8 child boxes in four 2-lane accumulators.
#include "geom/distance_simd.hpp"

#if defined(__aarch64__) || defined(__ARM_NEON)

#include <arm_neon.h>

namespace sdb::simd::detail {

std::uint32_t strip_neon(const double* q, size_t dim, double eps2,
                         const double* lanes, size_t count) {
  std::uint32_t mask = 0;
  size_t j = 0;
  for (; j + 2 <= count; j += 2) {
    const double* col = lanes + j;
    float64x2_t acc = vdupq_n_f64(0.0);
    bool abandoned = false;
    for (size_t d = 0; d < dim; ++d) {
      const float64x2_t vq = vdupq_n_f64(q[d]);
      const float64x2_t p = vld1q_f64(col + d * kDistanceStrip);
      const float64x2_t diff = vsubq_f64(vq, p);
      acc = vaddq_f64(acc, vmulq_f64(diff, diff));
      if (abandon_probe_due(d, dim) &&
          vgetq_lane_f64(acc, 0) > eps2 && vgetq_lane_f64(acc, 1) > eps2) {
        abandoned = true;
        break;
      }
    }
    if (abandoned) continue;
    if (vgetq_lane_f64(acc, 0) <= eps2) mask |= std::uint32_t{1} << j;
    if (vgetq_lane_f64(acc, 1) <= eps2) mask |= std::uint32_t{1} << (j + 1);
  }
  for (; j < count; ++j) {
    const double* col = lanes + j;
    double s = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff = q[d] - col[d * kDistanceStrip];
      s += diff * diff;
      if (s > eps2) break;
    }
    if (s <= eps2) mask |= std::uint32_t{1} << j;
  }
  return mask;
}

void box_neon(const double* q, size_t dim, const double* boxes, double* d2) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  float64x2_t s[kBoxFanout / 2] = {zero, zero, zero, zero};
  for (size_t d = 0; d < dim; ++d) {
    const float64x2_t vq = vdupq_n_f64(q[d]);
    const double* lo = boxes + d * 2 * kBoxFanout;
    const double* hi = lo + kBoxFanout;
    for (size_t g = 0; g < kBoxFanout / 2; ++g) {
      const float64x2_t e = vmaxq_f64(
          vmaxq_f64(vsubq_f64(vld1q_f64(lo + 2 * g), vq),
                    vsubq_f64(vq, vld1q_f64(hi + 2 * g))),
          zero);
      s[g] = vaddq_f64(s[g], vmulq_f64(e, e));
    }
  }
  for (size_t g = 0; g < kBoxFanout / 2; ++g) vst1q_f64(d2 + 2 * g, s[g]);
}

}  // namespace sdb::simd::detail

#endif  // aarch64 / NEON
