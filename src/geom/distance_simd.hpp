// Runtime-dispatched SIMD distance kernels over the strip-transposed (SoA)
// coordinate layout.
//
// The broadcast kd-tree's eps-range leaf scan is the hottest loop in the
// whole system, and the GPU DBSCAN literature (Prokopenko et al.; Wang et
// al.) shows the winning idiom: coalesced structure-of-arrays accesses and
// divergence-free inner loops. This header ports that idiom to SIMD lanes.
//
// Layout contract (the "strip" layout): candidate points are stored in
// blocks of kDistanceStrip lanes. Within a block, coordinates are
// dimension-major — all d=0 values of the block's points, then all d=1
// values, and so on — so the distance loop over `dim` is a pure vertical
// reduction: each vector lane accumulates one point's squared distance with
// unit-stride loads and no per-point pointer chasing. Blocks are addressed
// by global position: position i lives in block i / kDistanceStrip at lane
// i % kDistanceStrip, and a scan may enter a block at any lane offset (a
// kd-tree leaf can start mid-block).
//
// Determinism contract: every variant (scalar fallback, AVX2, AVX-512, NEON)
// returns bit-identical eps-decision masks. Each lane accumulates
// (q[d] - p[d])^2 in ascending-d order with UNFUSED multiply and add — the
// same operation sequence as the scalar squared_distance() — so
// eps-membership decisions, cluster labels, and exactly-eps boundary pairs
// agree byte-for-byte across variants and hosts. FMA contraction is
// deliberately not used: a fused multiply-add rounds once instead of twice,
// which would flip points that land within one ulp of the eps boundary.
// -ffp-contract=off is pinned PROJECT-WIDE (top-level CMakeLists), not just
// on the vector TUs — the scalar reference loops are header-inline in every
// spatial TU, and on targets where fmadd is baseline (aarch64) the compiler
// would otherwise contract them while the kernels stay unfused.
//
// Abandonment: a kernel MAY stop accumulating a lane — or stop fetching
// further dimension rows for the whole strip — once the partial sums it is
// tracking already exceed eps^2. The accumulation is monotone (every term
// is non-negative, and IEEE round-to-nearest addition of a non-negative
// value never decreases a sum), so a partial sum above eps^2 decides the
// final test exactly; abandonment changes how many bytes the kernel reads,
// never which bits it returns. This is why the contract hands the kernel
// eps^2 and takes back a decision instead of raw squared distances:
// returning the distances would force every lane to full depth, which
// sparse and high-dimensional scans mostly avoid.
//
// Two dispatched entry points per variant:
// - the range scan (RangeScanFn) decides a whole position range in one
//   call and writes the positions of its hits. Every row scan uses it:
//   each eps range query, exact or neighbor-budgeted, with one call per
//   kd-tree leaf or brute-force chunk (strip_scan, distance.hpp), which
//   keeps the hits up to the one that fills a budget; and the kNN filters
//   (kd-tree and brute-force knn_query, the exact kNN graph build), which
//   scan with eps^2 = the heap's worst distance at leaf or block entry and
//   compute exact distances only for the hits. A c100k query reaches ~21
//   leaves that span ~85 block segments; one call per leaf drops the
//   per-segment calls, mask walks and ragged-edge paths that dominated the
//   scan;
// - the box kernel (BoxDistFn) writes the squared distances from q to the
//   kBoxFanout child boxes of one kd-tree wide node, so a node's children
//   are tested with one call and no data-dependent branch. It takes no
//   cutoff and never abandons: the kd-tree compares each distance with
//   eps^2 for a range query and with the heap top for kNN, and a full sum
//   decides both comparisons as the old early-exit box loop did (the sum
//   is monotone in d). Box excess uses the same ascending-d, unfused
//   arithmetic, max(max(lo - q, q - hi), 0) squared, on every variant, so
//   the distances are bit-identical and every prune decision is the
//   scalar one.
// The AVX2 and AVX-512 range scans run whole blocks. The scalar and NEON
// ones are range_by_segments over a strip kernel (StripKernelFn), which
// decides one segment of one block and returns a mask; the scalar strip
// kernel, strip_scalar, is also the reference the tests hold every range
// scan to.
//
// Dispatch: the kernels are one set of function pointers per variant,
// resolved together on first use — CPU feature detection (AVX-512F then
// AVX2 on x86-64, NEON on aarch64) gated by the SDB_SIMD cmake option, the
// SDB_SIMD=scalar environment variable, and the force_scalar() test hook.
// The scalar fallback is always compiled, so a scalar-only build
// (-DSDB_SIMD=OFF) is just the permanent fallback.
//
// Counters: these entry points do NOT touch work counters — callers charge
// distance_evals themselves (see distance.hpp's counted wrappers and the
// per-query batching in the spatial indexes), keeping counts exact and the
// hot loop free of thread-local lookups.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sdb {

/// Strip width of the blocked/SIMD kernels: callers evaluate candidates in
/// blocks of at most this many points (small enough for a stack result
/// buffer, large enough that the vector loops amortize dispatch).
inline constexpr size_t kDistanceStrip = 32;

/// Child boxes per box-kernel call: the fan-out of a kd-tree wide node.
inline constexpr size_t kBoxFanout = 8;

namespace simd {

enum class KernelVariant { kScalar = 0, kAvx2 = 1, kNeon = 2, kAvx512 = 3 };

/// A strip kernel, the building block of the scalar and NEON range scans
/// (range_by_segments). fn(q, dim, eps2, lanes, count) -> mask:
///   bit j of the result is set iff
///   sum_d (q[d] - lanes[d * kDistanceStrip + j])^2 <= eps2,   for j < count;
///   bits >= count are always zero (count <= kDistanceStrip = 32, so the
///   mask fits a u32 exactly).
/// `lanes` points at the first lane to evaluate inside one strip block
/// (block base + lane offset); `count` never crosses a block boundary, so
/// count + (lanes - block_base) % kDistanceStrip <= kDistanceStrip.
/// Coordinates are assumed finite (no NaN/inf). eps2 may be +inf: a squared
/// distance that overflows to +inf then still counts as within eps, as it
/// does in the <= of the scalar loops.
using StripKernelFn = std::uint32_t (*)(const double* q, size_t dim,
                                        double eps2, const double* lanes,
                                        size_t count);

/// fn(q, dim, eps2, strips, begin, end, out) -> hit count: the exact
/// eps-range scan of global strip positions [begin, end) of the buffer at
/// `strips`. Writes to `out`, in ascending order, every position whose
/// squared distance from q is <= eps2 — strip_scalar's decision with its
/// arithmetic, so the positions are exactly the mask walk of
/// range_by_segments<&strip_scalar> —
/// and returns how many it wrote. `out` must have room for end - begin
/// entries; nothing past the returned count is written. The scan loads
/// whole blocks (every strip buffer is padded to whole blocks, see
/// strip_padded_len); lanes of the first and last block that lie outside
/// the range start from +inf, so they never hold up abandonment, and are
/// masked out of the result. One call replaces the per-block mask walk of
/// a kd-tree leaf. Same input assumptions as StripKernelFn.
using RangeScanFn = std::uint32_t (*)(const double* q, size_t dim,
                                      double eps2, const double* strips,
                                      size_t begin, size_t end,
                                      std::uint32_t* out);

/// fn(q, dim, boxes, d2): for each slot j < kBoxFanout,
///   d2[j] = sum_d e^2,  e = max(max(lo[d][j] - q[d], q[d] - hi[d][j]), 0),
/// summed in ascending d with unfused multiply and add. `boxes` holds one
/// wide node's child boxes dimension-major: for each d, lo[d][0..8) then
/// hi[d][0..8), i.e. lo[d][j] = boxes[2 * kBoxFanout * d + j] and
/// hi[d][j] = boxes[2 * kBoxFanout * d + kBoxFanout + j]. A point inside a
/// box or on its faces is at 0. An empty slot (lo = +inf, hi = -inf) comes
/// out +inf, which still passes a <= test against an eps2 of +inf, so
/// callers mask empty slots out themselves. Same input assumptions as
/// StripKernelFn; a squared excess that overflows is +inf.
using BoxDistFn = void (*)(const double* q, size_t dim, const double* boxes,
                           double* d2);

namespace detail {

/// One variant's entry points. The dispatcher selects a whole set, so the
/// range scan and the box kernel always come from the same variant — the
/// SDB_SIMD=scalar environment variable and force_scalar() pin both.
struct KernelSet {
  KernelVariant variant;
  RangeScanFn range;
  BoxDistFn box;
};

/// The dispatched set; null until first resolution. Relaxed atomics: all
/// candidate sets are interchangeable (bit-identical results), so racing
/// initializations are benign.
extern std::atomic<const KernelSet*> g_kernels;

/// Scalar reference implementations — always built, and the ground truth
/// the vector variants are tested bit-equal against.
std::uint32_t strip_scalar(const double* q, size_t dim, double eps2,
                           const double* lanes, size_t count);
void box_scalar(const double* q, size_t dim, const double* boxes, double* d2);

/// CPU detection + SDB_SIMD env + force_scalar() -> best set. Stores the
/// choice in g_kernels and returns it.
const KernelSet& resolve();

/// The active kernel set (resolving on first use). Fetch once per query,
/// not per strip, to keep the atomic load off the inner loop.
inline const KernelSet& kernels() {
  const KernelSet* set = g_kernels.load(std::memory_order_relaxed);
  return set != nullptr ? *set : resolve();
}

/// Test hook: every variant compiled into this build that the host CPU can
/// run, scalar first — so the bit-exactness suites cover each of them, not
/// only the one the dispatcher picks.
std::vector<KernelSet> supported_kernels();

/// A range scan built on a strip kernel: the kernel over each block segment
/// of [begin, end), each mask walked into positions. The scalar and NEON
/// range scans are this over their own strip kernels.
template <StripKernelFn kStrip>
std::uint32_t range_by_segments(const double* q, size_t dim, double eps2,
                                const double* strips, size_t begin,
                                size_t end, std::uint32_t* out) {
  std::uint32_t* o = out;
  for (size_t i = begin; i < end;) {
    const size_t lane = i % kDistanceStrip;
    const size_t m = std::min(kDistanceStrip - lane, end - i);
    std::uint32_t mask =
        kStrip(q, dim, eps2, strips + (i - lane) * dim + lane, m);
    while (mask != 0) {
      *o++ = static_cast<std::uint32_t>(i) +
             static_cast<std::uint32_t>(std::countr_zero(mask));
      mask &= mask - 1;
    }
    i += m;
  }
  return static_cast<std::uint32_t>(o - out);
}

/// Lanes of the block that starts at global position `block_pos` which lie
/// in [begin, end), as a lane mask. Requires begin < block_pos +
/// kDistanceStrip and block_pos < end.
constexpr std::uint32_t block_lanes(size_t begin, size_t end,
                                    size_t block_pos) {
  const size_t lo = begin > block_pos ? begin - block_pos : 0;
  const size_t hi = end - block_pos;
  const std::uint32_t below_hi =
      hi >= kDistanceStrip ? ~std::uint32_t{0}
                           : (std::uint32_t{1} << hi) - 1;
  return below_hi & ~((std::uint32_t{1} << lo) - 1);
}

/// Abandonment probe schedule shared by every vector kernel: probe after
/// dimension `d` iff this returns true. Dense early (every 2nd dim through
/// d=7, where low-d adversarial scans become decidable within a few dims),
/// then geometric (d = 15, 31, 63, ... — after each probe the kernel walks
/// at most as many dims again before the next one). The old fixed every-2nd
/// schedule paid ~d/2 horizontal min-tree reductions per strip at d >= 64 —
/// pure overhead on high-d strips whose partial sums cross eps^2 late or
/// not at all — while the geometric tail keeps the dims walked after the
/// scan becomes decidable bounded by 2x. Probing is always mask-safe at ANY
/// schedule: abandonment fires only when every lane's partial sum already
/// exceeds eps^2, which decides the final test exactly (monotonicity), so
/// the schedule changes bytes read and probe arithmetic, never mask bits —
/// pinned by the d=128 bit-identity fixtures in test_distance_kernels.
constexpr bool abandon_probe_due(size_t d, size_t dim) {
  return (d & 1) != 0 && (d < 8 || (d & (d + 1)) == 0) && d + 1 < dim;
}

}  // namespace detail

/// Which kernel the dispatcher currently selects.
KernelVariant active_variant();
const char* variant_name(KernelVariant v);
inline const char* active_variant_name() { return variant_name(active_variant()); }

/// Test hook: pin the dispatcher to the scalar fallback (true) or restore
/// CPU-detected dispatch (false). The SDB_SIMD=scalar environment variable
/// applies the same pin at startup — that is how the forced-scalar ctest
/// cell runs the whole suite on the fallback path.
void force_scalar(bool on);
[[nodiscard]] bool scalar_forced();

}  // namespace simd
}  // namespace sdb
