#include "geom/distance_simd.hpp"

#include <cstdlib>
#include <cstring>

namespace sdb::simd {
namespace detail {

std::uint32_t strip_scalar(const double* q, size_t dim, double eps2,
                           const double* lanes, size_t count) {
  std::uint32_t mask = 0;
  for (size_t j = 0; j < count; ++j) {
    const double* col = lanes + j;
    double s = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff = q[d] - col[d * kDistanceStrip];
      s += diff * diff;
      // Partial-distance abandonment: the sum is monotone, so once it
      // exceeds eps^2 the lane's decision is already made.
      if (s > eps2) break;
    }
    if (s <= eps2) mask |= std::uint32_t{1} << j;
  }
  return mask;
}

void box_scalar(const double* q, size_t dim, const double* boxes, double* d2) {
  double s[kBoxFanout] = {};
  for (size_t d = 0; d < dim; ++d) {
    const double* lo = boxes + d * 2 * kBoxFanout;
    const double* hi = lo + kBoxFanout;
    for (size_t j = 0; j < kBoxFanout; ++j) {
      const double e = std::max(std::max(lo[j] - q[d], q[d] - hi[j]), 0.0);
      s[j] += e * e;
    }
  }
  std::copy(s, s + kBoxFanout, d2);
}

#if SDB_HAVE_AVX2
// Defined in distance_simd_avx2.cpp (compiled with -mavx2 only).
std::uint32_t range_avx2(const double* q, size_t dim, double eps2,
                         const double* strips, size_t begin, size_t end,
                         std::uint32_t* out);
void box_avx2(const double* q, size_t dim, const double* boxes, double* d2);
#endif
#if SDB_HAVE_AVX512
// Defined in distance_simd_avx512.cpp (compiled with -mavx512f only).
std::uint32_t range_avx512(const double* q, size_t dim, double eps2,
                           const double* strips, size_t begin, size_t end,
                           std::uint32_t* out);
void box_avx512(const double* q, size_t dim, const double* boxes, double* d2);
#endif
#if SDB_HAVE_NEON
// Defined in distance_simd_neon.cpp.
std::uint32_t strip_neon(const double* q, size_t dim, double eps2,
                         const double* lanes, size_t count);
void box_neon(const double* q, size_t dim, const double* boxes, double* d2);
#endif

namespace {

constexpr KernelSet kScalarSet{KernelVariant::kScalar,
                               &range_by_segments<&strip_scalar>,
                               &box_scalar};
#if SDB_HAVE_AVX2
constexpr KernelSet kAvx2Set{KernelVariant::kAvx2, &range_avx2, &box_avx2};
#endif
#if SDB_HAVE_AVX512
constexpr KernelSet kAvx512Set{KernelVariant::kAvx512, &range_avx512,
                               &box_avx512};
#endif
#if SDB_HAVE_NEON
constexpr KernelSet kNeonSet{KernelVariant::kNeon,
                             &range_by_segments<&strip_neon>, &box_neon};
#endif

std::atomic<bool> g_forced_scalar{false};

/// True when the environment pins the scalar fallback (SDB_SIMD=scalar, off
/// or 0) — the forced-scalar ctest cell sets this for the whole binary.
bool env_forces_scalar() {
  const char* v = std::getenv("SDB_SIMD");
  if (v == nullptr) return false;
  return std::strcmp(v, "scalar") == 0 || std::strcmp(v, "off") == 0 ||
         std::strcmp(v, "0") == 0;
}

const KernelSet& best_kernels() {
  if (g_forced_scalar.load(std::memory_order_relaxed) || env_forces_scalar()) {
    return kScalarSet;
  }
#if SDB_HAVE_AVX512
  if (__builtin_cpu_supports("avx512f")) return kAvx512Set;
#endif
#if SDB_HAVE_AVX2
  if (__builtin_cpu_supports("avx2")) return kAvx2Set;
#endif
#if SDB_HAVE_NEON
  // NEON is baseline on aarch64; no runtime probe needed.
  return kNeonSet;
#endif
  return kScalarSet;
}

}  // namespace

std::atomic<const KernelSet*> g_kernels{nullptr};

const KernelSet& resolve() {
  const KernelSet& set = best_kernels();
  g_kernels.store(&set, std::memory_order_relaxed);
  return set;
}

std::vector<KernelSet> supported_kernels() {
  std::vector<KernelSet> sets{kScalarSet};
#if SDB_HAVE_AVX2
  if (__builtin_cpu_supports("avx2")) sets.push_back(kAvx2Set);
#endif
#if SDB_HAVE_AVX512
  if (__builtin_cpu_supports("avx512f")) sets.push_back(kAvx512Set);
#endif
#if SDB_HAVE_NEON
  sets.push_back(kNeonSet);
#endif
  return sets;
}

}  // namespace detail

KernelVariant active_variant() { return detail::kernels().variant; }

const char* variant_name(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar: return "scalar";
    case KernelVariant::kAvx2: return "avx2";
    case KernelVariant::kAvx512: return "avx512";
    case KernelVariant::kNeon: return "neon";
  }
  return "?";
}

void force_scalar(bool on) {
  detail::g_forced_scalar.store(on, std::memory_order_relaxed);
  detail::resolve();
}

bool scalar_forced() {
  return detail::g_forced_scalar.load(std::memory_order_relaxed);
}

}  // namespace sdb::simd
