// SIMD kernel contract tests (see distance_simd.hpp).
//
// Every kernel variant compiled in and supported by the host (scalar,
// AVX2, AVX-512, NEON — simd::detail::supported_kernels) is run directly,
// not only the one the dispatcher picks. Each range scan writes the
// positions of its hits, which must be the scalar strip kernel's mask walk
// AND the per-point full-sum oracle's hits on every input — including
// exactly-eps boundary pairs (eps2 values chosen to land exactly on a
// point's squared distance), denormals, huge magnitudes, an eps2 of +inf,
// and partial final strips. The kernels
// abandon a lane's accumulation once its partial sum exceeds eps2; these
// tests pin that the abandonment never changes a decision. Each box kernel
// writes a kd-tree wide node's child-box distances bit-equal to the scalar
// reference. Cluster labels must not depend on which variant ran. The
// forced-scalar ctest cell
// (test_distance_kernels_scalar, SDB_SIMD=scalar in the environment)
// re-runs this whole binary with dispatch pinned to the fallback, so the
// index-level comparisons are exercised on both sides on SIMD hosts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "core/dbscan_seq.hpp"
#include "geom/distance.hpp"
#include "query_oracles.hpp"
#include "spatial/brute_force.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/generators.hpp"
#include "util/counters.hpp"
#include "util/rng.hpp"

namespace sdb {
namespace {

using test::brute_oracle;
using test::per_point_hits;
using test::run_query;
using test::run_unreachable_budget;

/// Oracle mask: full-sum squared distance per lane (same ascending-d unfused
/// accumulation as the kernels), compared against eps2 with <= — the
/// decision every variant must reproduce regardless of how early it
/// abandons a lane.
u32 oracle_mask(std::span<const double> q,
                const std::vector<std::vector<double>>& rows, size_t pos,
                size_t count, double eps2) {
  u32 mask = 0;
  for (size_t j = 0; j < count; ++j) {
    if (squared_distance_uncounted(q, rows[pos + j]) <= eps2) {
      mask |= u32{1} << j;
    }
  }
  return mask;
}

/// Adversarial coordinate rows for one strip block: exact duplicates of the
/// query, partners offset by exactly eps along one axis, denormal and huge
/// magnitudes, negative zeros, and plain random values.
std::vector<std::vector<double>> adversarial_rows(size_t n, size_t dim,
                                                  double eps,
                                                  std::span<const double> q,
                                                  Rng& rng) {
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> p(dim);
    switch (i % 6) {
      case 0:  // exact duplicate of q -> distance exactly 0
        p.assign(q.begin(), q.end());
        break;
      case 1:  // exactly eps along one axis -> d2 lands on eps^2
        p.assign(q.begin(), q.end());
        p[rng.uniform_index(dim)] += eps;
        break;
      case 2:  // denormal coordinates
        for (auto& x : p) x = 1e-310;
        break;
      case 3:  // huge magnitudes (squares near the overflow edge)
        for (auto& x : p) x = (rng.uniform(0.0, 1.0) < 0.5 ? -1e150 : 1e150);
        break;
      case 4:  // negative zero vs positive zero
        for (auto& x : p) x = -0.0;
        break;
      default:
        for (auto& x : p) x = rng.uniform(-100.0, 100.0);
        break;
    }
    rows.push_back(std::move(p));
  }
  return rows;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

const char* name_of(const simd::detail::KernelSet& set) {
  return simd::variant_name(set.variant);
}

/// The scalar strip kernel's mask walk: the range scan every variant's
/// range scan must match position for position.
constexpr simd::RangeScanFn kScalarWalk =
    &simd::detail::range_by_segments<&simd::detail::strip_scalar>;

/// Positions pos + j for the set bits j of `mask`, ascending.
std::vector<u32> mask_positions(size_t pos, u32 mask) {
  std::vector<u32> out;
  for (; mask != 0; mask &= mask - 1) {
    out.push_back(static_cast<u32>(pos) +
                  static_cast<u32>(std::countr_zero(mask)));
  }
  return out;
}

/// `range`'s hits over positions [begin, end) of `strips`. The output buffer
/// has 8 slots past end - begin, and a scan that writes past the count it
/// returns fails the calling test.
std::vector<u32> range_hits(simd::RangeScanFn range, std::span<const double> q,
                            double eps2, const std::vector<double>& strips,
                            size_t begin, size_t end) {
  constexpr u32 kCanary = 0xdeadbeefu;
  std::vector<u32> out(end - begin + 8, kCanary);
  const u32 hits = range(q.data(), q.size(), eps2, strips.data(), begin, end,
                         out.data());
  EXPECT_LE(hits, end - begin) << "begin=" << begin << " end=" << end;
  for (size_t k = hits; k < out.size(); ++k) {
    EXPECT_EQ(out[k], kCanary) << "wrote past its count: begin=" << begin
                               << " end=" << end << " slot=" << k;
  }
  out.resize(std::min<size_t>(hits, out.size()));
  return out;
}

// ---------------------------------------------------------------------------
// Strip-kernel fixtures through the range scan: every variant's range scan,
// called on each block segment (the unit a strip kernel decides), must
// write exactly the scalar strip kernel's mask walk and the full-sum
// oracle's hits.
// ---------------------------------------------------------------------------

class StripKernelBitExact : public ::testing::TestWithParam<size_t> {};

TEST_P(StripKernelBitExact, MatchesScalarReferenceAndPerPointLoop) {
  const size_t dim = GetParam();
  const double eps = 25.0;
  Rng rng(1234 + static_cast<u64>(dim));
  std::vector<double> q(dim);
  for (auto& x : q) x = rng.uniform(-100.0, 100.0);

  // Two full blocks plus a partial one, each block segment scanned below.
  const size_t n = 2 * kDistanceStrip + 7;
  const auto rows = adversarial_rows(n, dim, eps, q, rng);
  std::vector<double> strips(strip_padded_len(n, dim), 0.0);
  for (size_t i = 0; i < n; ++i) strip_store_row(strips.data(), i, rows[i]);

  // Thresholds that make the decision a one-ulp question: 0 (only exact
  // duplicates pass), eps^2 exactly (the offset-by-eps partners land ON the
  // boundary), one ulp below it (they must flip out), exact squared
  // distances of individual rows (<= must include them), tiny and huge,
  // and +inf (an eps that overflows when squared: every row is within it,
  // and no position outside the segment may be written).
  std::vector<double> eps2s = {0.0, eps * eps,
                               std::nextafter(eps * eps, 0.0), 1e-310, 1e5,
                               1e300, kInf};
  for (size_t i = 0; i < n; i += 5) {
    eps2s.push_back(squared_distance_uncounted(q, rows[i]));
  }

  for (const simd::detail::KernelSet& set : simd::detail::supported_kernels()) {
    for (const double eps2 : eps2s) {
      for (size_t pos = 0; pos < n;) {
        const size_t count = std::min(kDistanceStrip - pos % kDistanceStrip,
                                      n - pos);
        const auto got = range_hits(set.range, q, eps2, strips, pos,
                                    pos + count);
        const auto ref = range_hits(kScalarWalk, q, eps2, strips, pos,
                                    pos + count);
        const auto want =
            mask_positions(pos, oracle_mask(q, rows, pos, count, eps2));
        EXPECT_EQ(got, ref) << name_of(set) << " vs strip_scalar: dim=" << dim
                            << " pos=" << pos << " eps2=" << eps2;
        EXPECT_EQ(got, want) << name_of(set) << " vs full-sum oracle: dim="
                             << dim << " pos=" << pos << " eps2=" << eps2;
        pos += count;
      }
    }
  }
}

TEST_P(StripKernelBitExact, EveryLaneOffsetAndCount) {
  // A scan may enter a block at any lane and take any count up to the block
  // end — sweep them all. The hits are the oracle's, so no position outside
  // the segment is ever written.
  const size_t dim = GetParam();
  const double eps = 4.0;
  Rng rng(99 + static_cast<u64>(dim));
  std::vector<double> q(dim);
  for (auto& x : q) x = rng.uniform(-10.0, 10.0);

  const size_t n = kDistanceStrip;
  const auto rows = adversarial_rows(n, dim, eps, q, rng);
  std::vector<double> strips(strip_padded_len(n, dim), 0.0);
  for (size_t i = 0; i < n; ++i) strip_store_row(strips.data(), i, rows[i]);

  for (const simd::detail::KernelSet& set : simd::detail::supported_kernels()) {
    for (const double eps2 : {0.0, eps * eps, 1e4, kInf}) {
      for (size_t lane = 0; lane < kDistanceStrip; ++lane) {
        for (size_t count = 1; count <= kDistanceStrip - lane; ++count) {
          const auto got =
              range_hits(set.range, q, eps2, strips, lane, lane + count);
          const auto want =
              mask_positions(lane, oracle_mask(q, rows, lane, count, eps2));
          EXPECT_EQ(got, want) << name_of(set) << " lane=" << lane
                               << " count=" << count << " eps2=" << eps2;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, StripKernelBitExact,
                         ::testing::Values<size_t>(1, 2, 3, 10, 64, 96, 128));

// ---------------------------------------------------------------------------
// Range scan: one call over a whole position range must write exactly the
// scalar strip kernel's mask walk over that range — ascending positions,
// the same decisions bit for bit — and the full-sum oracle's hits, from any
// start lane, at any length, and never write past the count it returns.
// ---------------------------------------------------------------------------

class RangeScanBitExact : public ::testing::TestWithParam<size_t> {};

TEST_P(RangeScanBitExact, MatchesStripMaskWalkAndOracle) {
  const size_t dim = GetParam();
  const double eps = 25.0;
  Rng rng(4321 + static_cast<u64>(dim));
  std::vector<double> q(dim);
  for (auto& x : q) x = rng.uniform(-100.0, 100.0);

  // Three full blocks plus a partial one: a range of up to 65 positions
  // from any start lane of the first two blocks spans up to 3 blocks, and
  // the late ones end in the padded final block.
  const size_t n = 3 * kDistanceStrip + 7;
  const auto rows = adversarial_rows(n, dim, eps, q, rng);
  std::vector<double> strips(strip_padded_len(n, dim), 0.0);
  for (size_t i = 0; i < n; ++i) strip_store_row(strips.data(), i, rows[i]);

  std::vector<double> eps2s = {0.0, eps * eps,
                               std::nextafter(eps * eps, 0.0), 1e-310, 1e5,
                               1e300, kInf};
  for (size_t i = 0; i < n; i += 5) {
    eps2s.push_back(squared_distance_uncounted(q, rows[i]));
  }

  for (const simd::detail::KernelSet& set : simd::detail::supported_kernels()) {
    for (const double eps2 : eps2s) {
      std::vector<u32> within;  // oracle hits over all rows, ascending
      for (size_t i = 0; i < n; ++i) {
        if (squared_distance_uncounted(q, rows[i]) <= eps2) {
          within.push_back(static_cast<u32>(i));
        }
      }
      for (size_t begin = 0; begin < 2 * kDistanceStrip; ++begin) {
        for (const size_t len : {0, 1, 31, 32, 33, 64, 65}) {
          const size_t end = std::min(n, begin + len);
          const auto walked = range_hits(kScalarWalk, q, eps2, strips, begin,
                                         end);
          std::vector<u32> want;
          for (const u32 i : within) {
            if (i >= begin && i < end) want.push_back(i);
          }
          const auto got = range_hits(set.range, q, eps2, strips, begin, end);
          EXPECT_EQ(got, walked) << name_of(set) << " vs strip mask walk: dim="
                                 << dim << " begin=" << begin
                                 << " end=" << end << " eps2=" << eps2;
          EXPECT_EQ(got, want) << name_of(set) << " vs full-sum oracle: dim="
                               << dim << " begin=" << begin
                               << " end=" << end << " eps2=" << eps2;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, RangeScanBitExact,
                         ::testing::Values<size_t>(1, 2, 3, 10, 64, 96, 128));

TEST(RangeScan, LongRangesAreChunkedWithoutChangingHits) {
  // strip_scan splits a range longer than its position buffer at block
  // boundaries: the hits of a long range, from every start lane, must be
  // the full-sum oracle's, in ascending order, on every variant. Under a
  // limit that fills in the first, a middle or the last chunk it emits the
  // oracle's first `left` hits and charges the rows up to the filling one;
  // under a limit it does not fill, every hit and every row.
  const size_t dim = 3;
  const size_t n = 3 * kRangeScanChunk + 11;
  Rng rng(777);
  PointSet ps(3);
  std::vector<double> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (auto& x : p) x = rng.uniform(0.0, 10.0);
    ps.add(p);
  }
  std::vector<double> strips(strip_padded_len(n, dim), 0.0);
  for (size_t i = 0; i < n; ++i) {
    strip_store_row(strips.data(), i, ps[static_cast<PointId>(i)]);
  }
  const auto q = ps[0];
  const double eps2 = 16.0;
  for (size_t begin = 0; begin < kDistanceStrip; ++begin) {
    std::vector<size_t> all;
    for (size_t i = begin; i < n; ++i) {
      if (squared_distance_uncounted(q, ps[static_cast<PointId>(i)]) <=
          eps2) {
        all.push_back(i);
      }
    }
    // Chunk c of the scan from `begin` covers positions from its first
    // block's start + c * kRangeScanChunk, up to kRangeScanChunk of them.
    const auto chunk_of = [&](size_t pos) {
      return (pos - (begin - begin % kDistanceStrip)) / kRangeScanChunk;
    };
    // Limits that fill at the first hit, at the first hit of the third
    // chunk, and at the very last hit.
    const auto third = std::find_if(
        all.begin(), all.end(), [&](size_t pos) { return chunk_of(pos) == 2; });
    ASSERT_NE(third, all.end()) << "begin=" << begin;
    ASSERT_EQ(chunk_of(all.front()), 0u) << "begin=" << begin;
    ASSERT_EQ(chunk_of(n - 1), 3u) << "begin=" << begin;
    ASSERT_EQ(chunk_of(all.back()), 3u) << "begin=" << begin;
    const u64 first_of_third = static_cast<u64>(third - all.begin()) + 1;
    const u64 total = all.size();
    for (const simd::detail::KernelSet& set :
         simd::detail::supported_kernels()) {
      for (const u64 limit :
           {u64{1}, first_of_third, total, total + 1, ~u64{0}}) {
        const bool fills = limit <= total;
        const std::vector<size_t> want(
            all.begin(),
            all.begin() + static_cast<std::ptrdiff_t>(std::min(limit, total)));
        std::vector<size_t> got;
        u64 left = limit;
        const size_t rows =
            strip_scan(set.range, q, eps2, strips.data(), begin, n, left,
                       [&](size_t pos) { got.push_back(pos); });
        EXPECT_EQ(got, want) << name_of(set) << " begin=" << begin
                             << " limit=" << limit;
        EXPECT_EQ(left, fills ? 0 : limit - total)
            << name_of(set) << " begin=" << begin << " limit=" << limit;
        EXPECT_EQ(rows, fills ? want.back() - begin + 1 : n - begin)
            << name_of(set) << " begin=" << begin << " limit=" << limit;
      }
    }
  }
}

TEST(RangeScan, OverflowedEpsReturnsEveryIdOnce) {
  // eps = 1e155 squares to +inf. Every point is then within eps, and each
  // exact and budgeted scan must report each id exactly once — never a
  // padding lane, a lane past the range, or an id read past the end of the
  // index's id table. The kd-tree's exact query (batched leaves) must also
  // report them in the order, and with the counters, of the same descent
  // scanning each leaf as it is reached (a neighbor budget that never
  // fills).
  Rng rng(1155);
  PointSet ps(3);
  std::vector<double> p(3);
  for (int i = 0; i < 5; ++i) {
    for (auto& x : p) x = rng.uniform(-10.0, 10.0);
    ps.add(p);
  }
  const double eps = 1e155;
  ASSERT_TRUE(std::isinf(eps * eps));
  const KdTree tree(ps, KdTreeOptions{.build_threads = 1});
  const BruteForceIndex brute(ps);
  const std::vector<PointId> every = {0, 1, 2, 3, 4};
  ASSERT_EQ(per_point_hits(ps, ps[0], eps), every);
  QueryBudget budgeted;
  budgeted.max_neighbors = 100;
  for (const SpatialIndex* index : {static_cast<const SpatialIndex*>(&tree),
                                    static_cast<const SpatialIndex*>(&brute)}) {
    for (const QueryBudget& budget : {QueryBudget{}, budgeted}) {
      std::vector<PointId> hits;
      index->range_query_budgeted(ps[0], eps, budget, hits);
      std::sort(hits.begin(), hits.end());
      EXPECT_EQ(hits, every) << index->name() << " max_neighbors="
                             << budget.max_neighbors;
    }
  }
  const auto exact = run_query(tree, ps[0], eps);
  const auto reference = run_unreachable_budget(tree, ps[0], eps);
  EXPECT_EQ(exact.hits, reference.hits);
  EXPECT_EQ(exact.distance_evals, reference.distance_evals);
  EXPECT_EQ(exact.tree_nodes, reference.tree_nodes);
}

// ---------------------------------------------------------------------------
// Box kernel: one call writes the squared distances from q to the
// kBoxFanout child boxes of a kd-tree wide node. Every variant must equal
// the scalar reference bit for bit, and the reference must equal a per-slot
// loop of the clamped excess — the binary descent's box arithmetic without
// its early exit — so every prune decision stays what it was. Boxes are
// random, some slots empty (lo = +inf, hi = -inf); queries lie inside a
// box, outside it and on its faces; a quarter of the nodes sit at 1e155,
// where a squared excess overflows to +inf.
// ---------------------------------------------------------------------------

/// Slot j's squared box distance, one dimension at a time.
double box_oracle(const std::vector<double>& q,
                  const std::vector<double>& boxes, size_t j) {
  double s = 0.0;
  for (size_t d = 0; d < q.size(); ++d) {
    const double lo = boxes[d * 2 * kBoxFanout + j];
    const double hi = boxes[d * 2 * kBoxFanout + kBoxFanout + j];
    const double e = std::max(std::max(lo - q[d], q[d] - hi), 0.0);
    s += e * e;
  }
  return s;
}

class BoxDistBitExact : public ::testing::TestWithParam<size_t> {};

TEST_P(BoxDistBitExact, EveryVariantMatchesScalarAndSlotLoop) {
  const size_t dim = GetParam();
  Rng rng(2718 + static_cast<u64>(dim));
  const auto supported = simd::detail::supported_kernels();
  for (int trial = 0; trial < 64; ++trial) {
    const double scale = trial % 4 == 3 ? 1e155 : 100.0;
    std::vector<double> boxes(2 * kBoxFanout * dim);
    std::vector<bool> empty(kBoxFanout);
    for (size_t j = 0; j < kBoxFanout; ++j) {
      empty[j] = j == 0 || rng.uniform_index(4) == 0;
      for (size_t d = 0; d < dim; ++d) {
        double lo = kInf;
        double hi = -kInf;
        if (!empty[j]) {
          const double a = rng.uniform(-1.0, 1.0) * scale;
          const double b = rng.uniform(-1.0, 1.0) * scale;
          lo = std::min(a, b);
          hi = std::max(a, b);
        }
        boxes[d * 2 * kBoxFanout + j] = lo;
        boxes[d * 2 * kBoxFanout + kBoxFanout + j] = hi;
      }
    }
    const auto lo = [&](size_t d, size_t j) {
      return boxes[d * 2 * kBoxFanout + j];
    };
    const auto hi = [&](size_t d, size_t j) {
      return boxes[d * 2 * kBoxFanout + kBoxFanout + j];
    };
    // Per live slot: a query inside its box, one on a face or corner mix of
    // its faces, and one past it; then points anywhere in and around.
    std::vector<std::vector<double>> queries;
    for (size_t j = 0; j < kBoxFanout; ++j) {
      if (empty[j]) continue;
      std::vector<double> inside(dim);
      std::vector<double> face(dim);
      std::vector<double> outside(dim);
      for (size_t d = 0; d < dim; ++d) {
        inside[d] = lo(d, j) + (hi(d, j) - lo(d, j)) * rng.uniform(0.0, 1.0);
        face[d] = rng.uniform_index(2) == 0 ? lo(d, j) : hi(d, j);
        outside[d] = rng.uniform_index(2) == 0 ? lo(d, j) - scale
                                               : hi(d, j) + scale;
      }
      queries.push_back(std::move(inside));
      queries.push_back(std::move(face));
      queries.push_back(std::move(outside));
    }
    for (int i = 0; i < 4; ++i) {
      std::vector<double> q(dim);
      for (auto& x : q) x = rng.uniform(-2.0, 2.0) * scale;
      queries.push_back(std::move(q));
    }
    for (const auto& q : queries) {
      double want[kBoxFanout];
      simd::detail::box_scalar(q.data(), dim, boxes.data(), want);
      for (size_t j = 0; j < kBoxFanout; ++j) {
        EXPECT_EQ(std::bit_cast<u64>(want[j]),
                  std::bit_cast<u64>(box_oracle(q, boxes, j)))
            << "scalar vs slot loop: dim=" << dim << " slot=" << j;
        if (empty[j]) {
          // +inf away, which still passes an overflowed eps2 of +inf: the
          // kd-tree masks empty slots out, it cannot rely on the distance.
          EXPECT_EQ(want[j], kInf) << "dim=" << dim << " slot=" << j;
          EXPECT_TRUE(want[j] <= kInf);
        }
      }
      for (const simd::detail::KernelSet& set : supported) {
        double got[kBoxFanout];
        set.box(q.data(), dim, boxes.data(), got);
        for (size_t j = 0; j < kBoxFanout; ++j) {
          EXPECT_EQ(std::bit_cast<u64>(got[j]), std::bit_cast<u64>(want[j]))
              << name_of(set) << " dim=" << dim << " slot=" << j
              << " got=" << got[j] << " want=" << want[j];
        }
      }
    }
    // The inside and face queries of each live slot are at distance 0 from
    // it (finite boxes only: at 1e155 an inside point can round off).
    if (scale == 100.0) {
      size_t qi = 0;
      for (size_t j = 0; j < kBoxFanout; ++j) {
        if (empty[j]) continue;
        EXPECT_EQ(box_oracle(queries[qi], boxes, j), 0.0);
        EXPECT_EQ(box_oracle(queries[qi + 1], boxes, j), 0.0);
        EXPECT_GT(box_oracle(queries[qi + 2], boxes, j), 0.0);
        qi += 3;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, BoxDistBitExact,
                         ::testing::Values<size_t>(1, 2, 3, 10, 64));

// ---------------------------------------------------------------------------
// Partial-distance abandonment at high dimension. The probe schedule
// (abandon_probe_due) checks the accumulated partial sum at fixed depths;
// the d >= 64 regression was a stride that skipped the late probes, so
// far-away rows burned the whole row before abandoning — and one variant's
// probe placement disagreed with another's mask on boundary eps2 values.
// These fixtures make abandonment THE common case and require every range
// scan's hits, block segment by block segment, to be exactly the scalar
// strip kernel's and the full-sum oracle's.
// ---------------------------------------------------------------------------

class AbandonmentHighDim : public ::testing::TestWithParam<size_t> {};

TEST_P(AbandonmentHighDim, AllFarRowsMatchScalarBitExactly) {
  const size_t dim = GetParam();
  Rng rng(5150 + static_cast<u64>(dim));
  std::vector<double> q(dim);
  for (auto& x : q) x = rng.uniform(-1.0, 1.0);

  // Rows engineered to cross eps2 at a controlled depth: the first
  // `cross_at` coordinates equal q's (contributing 0), the rest differ by
  // 10 each. Sweeping cross_at over the probe depths (1, 3, 7, 15, 31, 63,
  // 127) exercises every abandonment point of the schedule; the remaining
  // lanes are near-duplicates that must survive to the end.
  const size_t n = 2 * kDistanceStrip + 5;
  std::vector<std::vector<double>> rows;
  const size_t depths[] = {0, 1, 3, 7, 15, 31, 47, 63, 95, 127};
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> p(q.begin(), q.end());
    if (i % 3 == 0) {
      // near row: tiny perturbation in the LAST coordinate only — the
      // decision is made at the very end of the accumulation.
      p[dim - 1] += 0.5;
    } else {
      const size_t cross = std::min(depths[i % 10], dim - 1);
      for (size_t d = cross; d < dim; ++d) p[d] += 10.0;
    }
    rows.push_back(std::move(p));
  }
  std::vector<double> strips(strip_padded_len(n, dim), 0.0);
  for (size_t i = 0; i < n; ++i) strip_store_row(strips.data(), i, rows[i]);

  // eps2 ladder: thresholds between the per-depth crossing sums, so each
  // value abandons a different subset of rows at a different probe.
  std::vector<double> eps2s = {0.24, 0.26, 1.0, 100.0 - 1e-9, 100.0,
                               100.0 + 1e-9, 1600.0, 1e4, 1e6};
  for (size_t i = 0; i < n; i += 7) {
    eps2s.push_back(squared_distance_uncounted(q, rows[i]));
  }

  for (const simd::detail::KernelSet& set : simd::detail::supported_kernels()) {
    for (const double eps2 : eps2s) {
      for (size_t pos = 0; pos < n;) {
        const size_t count = std::min(kDistanceStrip - pos % kDistanceStrip,
                                      n - pos);
        const auto got = range_hits(set.range, q, eps2, strips, pos,
                                    pos + count);
        const auto ref = range_hits(kScalarWalk, q, eps2, strips, pos,
                                    pos + count);
        const auto want =
            mask_positions(pos, oracle_mask(q, rows, pos, count, eps2));
        EXPECT_EQ(got, ref) << name_of(set) << " dim=" << dim
                            << " pos=" << pos << " eps2=" << eps2;
        EXPECT_EQ(got, want) << name_of(set) << " dim=" << dim
                             << " pos=" << pos << " eps2=" << eps2;
        pos += count;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, AbandonmentHighDim,
                         ::testing::Values<size_t>(64, 65, 96, 128));

// ---------------------------------------------------------------------------
// Index-level regression: partial final strips / strip-boundary counts.
// ---------------------------------------------------------------------------

class StripBoundarySizes : public ::testing::TestWithParam<size_t> {};

TEST_P(StripBoundarySizes, ReorderedTreeMatchesLegacyAndBruteExactly) {
  // Dataset sizes straddling the strip width: 1, kDistanceStrip +- 1, etc.
  // With leaf_size >= n the whole dataset is one leaf, so the query IS one
  // kernel call with a partial final strip — the tail-handling regression
  // this suite pins down. The hit set must be the per-point loop's, and the
  // hit order, distance_evals and tree_nodes those of the same descent
  // scanning each leaf as it is reached (a neighbor budget that never
  // fills) instead of in a batch.
  const size_t n = GetParam();
  const double eps = 30.0;
  Rng rng(7 + static_cast<u64>(n));
  PointSet ps(3);
  std::vector<double> p(3);
  for (size_t i = 0; i < n; ++i) {
    for (auto& x : p) x = rng.uniform(0.0, 60.0);
    ps.add(p);
  }
  const KdTree tree(ps, KdTreeOptions{.build_threads = 1});
  const BruteForceIndex brute(ps);

  for (size_t qi = 0; qi < n; ++qi) {
    const auto q = ps[static_cast<PointId>(qi)];
    const auto exact = run_query(tree, q, eps);
    const auto reference = run_unreachable_budget(tree, q, eps);
    const auto by_brute = run_query(brute, q, eps);
    EXPECT_EQ(exact.hits, reference.hits) << "n=" << n << " q=" << qi;
    EXPECT_EQ(exact.distance_evals, reference.distance_evals)
        << "n=" << n << " q=" << qi;
    EXPECT_EQ(exact.tree_nodes, reference.tree_nodes)
        << "n=" << n << " q=" << qi;
    // Brute force streams the same kernel over id order; same totals.
    std::vector<PointId> sorted_hits = exact.hits;
    std::sort(sorted_hits.begin(), sorted_hits.end());
    EXPECT_EQ(sorted_hits, per_point_hits(ps, q, eps))
        << "n=" << n << " q=" << qi;
    EXPECT_EQ(sorted_hits, by_brute.hits) << "n=" << n << " q=" << qi;
    EXPECT_EQ(by_brute.distance_evals, n) << "n=" << n << " q=" << qi;
  }
}

INSTANTIATE_TEST_SUITE_P(AroundStripWidth, StripBoundarySizes,
                         ::testing::Values<size_t>(1, kDistanceStrip - 1,
                                                   kDistanceStrip,
                                                   kDistanceStrip + 1,
                                                   2 * kDistanceStrip - 1,
                                                   2 * kDistanceStrip + 1));

// ---------------------------------------------------------------------------
// Budgeted scans through the range scan (strip_scan): hits, order,
// distance_evals, and the early-stop row must be exactly a per-row loop's —
// for the function itself on every kernel variant, and across indexes,
// variants, and strip-boundary sizes for the queries built on it.
// ---------------------------------------------------------------------------

TEST(BudgetedStripScan, MatchesPerRowLoopOnEveryVariant) {
  // The reference walks the packed rows of [begin, end) in order, charges
  // one evaluation per row it visits, and stops right after the row whose
  // hit uses up the remaining budget `left`. strip_scan must emit the same
  // positions, leave the same `left`, return the same row charge and stop
  // exactly when the reference stops (left == 0), from every start lane of
  // two blocks, on every supported variant's range scan. The limits are
  // every remaining budget a (max_neighbors, hits found before) pair of
  // {1, 3, 31, 32, 33, 64} x {0, 5} leaves, and ~0, the exact scan's.
  const double eps = 25.0;
  for (const size_t dim : {size_t{1}, size_t{3}, size_t{10}, size_t{64}}) {
    Rng rng(9090 + static_cast<u64>(dim));
    std::vector<double> q(dim);
    for (auto& x : q) x = rng.uniform(-100.0, 100.0);
    const size_t n = 3 * kDistanceStrip + 7;
    const auto rows = adversarial_rows(n, dim, eps, q, rng);
    std::vector<double> strips(strip_padded_len(n, dim), 0.0);
    for (size_t i = 0; i < n; ++i) strip_store_row(strips.data(), i, rows[i]);
    std::vector<double> eps2s = {0.0, eps * eps, std::nextafter(eps * eps, 0.0),
                                 1e300, kInf};
    for (size_t i = 0; i < n; i += 11) {
      eps2s.push_back(squared_distance_uncounted(q, rows[i]));
    }

    for (const simd::detail::KernelSet& set :
         simd::detail::supported_kernels()) {
      for (const double eps2 : eps2s) {
        for (size_t begin = 0; begin < 2 * kDistanceStrip; ++begin) {
          for (const size_t end : {begin + 1, begin + 40, n}) {
            for (const u64 limit :
                 {u64{1}, u64{3}, u64{26}, u64{27}, u64{28}, u64{31}, u64{32},
                  u64{33}, u64{59}, u64{64}, ~u64{0}}) {
              std::vector<size_t> want;
              u64 want_left = limit;
              size_t want_rows = 0;
              bool want_stop = false;
              for (size_t i = begin; i < end && !want_stop; ++i) {
                ++want_rows;
                if (squared_distance_uncounted(q, rows[i]) <= eps2) {
                  want.push_back(i);
                  want_stop = --want_left == 0;
                }
              }

              std::vector<size_t> got;
              u64 left = limit;
              const size_t rows_charged =
                  strip_scan(set.range, q, eps2, strips.data(), begin, end,
                             left, [&](size_t pos) { got.push_back(pos); });
              const auto where = [&] {
                return std::string(name_of(set)) +
                       " dim=" + std::to_string(dim) +
                       " begin=" + std::to_string(begin) +
                       " end=" + std::to_string(end) +
                       " eps2=" + std::to_string(eps2) +
                       " limit=" + std::to_string(limit);
              };
              EXPECT_EQ(got, want) << where();
              EXPECT_EQ(left, want_left) << where();
              EXPECT_EQ(rows_charged, want_rows) << where();
              EXPECT_EQ(left == 0, want_stop) << where();
            }
          }
        }
      }
    }
  }
}

TEST(BudgetedStripScan, BitIdenticalAcrossVariantsAndLayouts) {
  // Dataset sizes straddling the strip width so the budget can fill inside
  // a full block, exactly at a block edge, and in a ragged tail; budgets
  // straddling the typical hit counts so both the "whole range consumed"
  // and the "stop at the filling hit, charge the rows up to it" paths run.
  // Brute force and a one-leaf kd-tree (leaf_size >= n, so its leaf order
  // is the id order) must both equal the per-row loop over ids, dispatched
  // and under force_scalar.
  for (const size_t n : {size_t{1}, kDistanceStrip - 1, kDistanceStrip,
                         kDistanceStrip + 1, 3 * kDistanceStrip + 5,
                         size_t{400}}) {
    Rng rng(31 + static_cast<u64>(n));
    PointSet ps(4);
    std::vector<double> p(4);
    for (size_t i = 0; i < n; ++i) {
      for (auto& x : p) x = rng.uniform(0.0, 50.0);
      ps.add(p);
    }
    const KdTree tree(ps, KdTreeOptions{.build_threads = 1});
    const KdTree one_leaf(ps, KdTreeOptions{.leaf_size = static_cast<int>(n),
                                            .build_threads = 1});
    const BruteForceIndex brute(ps);

    for (const u64 max_neighbors : {u64{1}, u64{3}, u64{31}, u64{32}, u64{33},
                                    u64{64}}) {
      QueryBudget budget;
      budget.max_neighbors = max_neighbors;
      for (size_t qi = 0; qi < n; qi += (n > 64 ? 7 : 1)) {
        const auto q = ps[static_cast<PointId>(qi)];
        auto run = [&](const SpatialIndex& index) {
          WorkCounters wc;
          std::vector<PointId> hits;
          {
            ScopedCounters scope(&wc);
            index.range_query_budgeted(q, 20.0, budget, hits);
          }
          return std::make_pair(hits, wc.distance_evals);
        };
        // The per-row loop over ids: hits until the budget fills, one
        // evaluation per row up to the filling one.
        std::pair<std::vector<PointId>, u64> per_row;
        for (PointId i = 0; i < static_cast<PointId>(n) &&
                            per_row.first.size() < max_neighbors;
             ++i) {
          ++per_row.second;
          if (squared_distance_uncounted(q, ps[i]) <= 20.0 * 20.0) {
            per_row.first.push_back(i);
          }
        }
        for (const SpatialIndex* index :
             {static_cast<const SpatialIndex*>(&one_leaf),
              static_cast<const SpatialIndex*>(&brute)}) {
          EXPECT_EQ(run(*index), per_row)
              << index->name() << " n=" << n << " q=" << qi
              << " max_neighbors=" << max_neighbors;
          simd::force_scalar(true);
          EXPECT_EQ(run(*index), per_row)
              << index->name() << " scalar n=" << n << " q=" << qi
              << " max_neighbors=" << max_neighbors;
          simd::force_scalar(false);
        }
        // Kernel-vs-scalar parity on every index type, and truncation
        // order: a budgeted query reports the first max_neighbors hits of
        // the same index's exact query, in its order (same traversal; the
        // stop row itself is pinned by MatchesPerRowLoopOnEveryVariant).
        for (const SpatialIndex* index :
             {static_cast<const SpatialIndex*>(&tree),
              static_cast<const SpatialIndex*>(&brute)}) {
          const auto dispatched = run(*index);
          simd::force_scalar(true);
          const auto scalar = run(*index);
          simd::force_scalar(false);
          EXPECT_EQ(dispatched.first, scalar.first)
              << index->name() << " n=" << n << " q=" << qi
              << " max_neighbors=" << max_neighbors;
          EXPECT_EQ(dispatched.second, scalar.second)
              << index->name() << " n=" << n << " q=" << qi
              << " max_neighbors=" << max_neighbors;
          std::vector<PointId> prefix = run_query(*index, q, 20.0).hits;
          prefix.resize(std::min<size_t>(prefix.size(), max_neighbors));
          EXPECT_EQ(dispatched.first, prefix)
              << index->name() << " n=" << n << " q=" << qi
              << " max_neighbors=" << max_neighbors;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// kNN through the kernel filter: the heap-refinement path range-scans leaf
// candidates at the current worst heap distance and must return exactly
// the forced-scalar run's neighbors and charges, and the per-point oracle's
// neighbors.
// ---------------------------------------------------------------------------

TEST(KnnKernelFilter, BitIdenticalScalarVsSimdAndLegacyLayout) {
  Rng rng(4242);
  synth::GaussianMixtureConfig cfg;
  cfg.n = 1200;
  cfg.dim = 6;
  cfg.clusters = 4;
  cfg.sigma = 3.0;
  cfg.box_side = 80.0;
  const PointSet ps = synth::gaussian_clusters(cfg, rng);
  const KdTree tree(ps, KdTreeOptions{.build_threads = 1});

  for (const size_t k : {size_t{1}, size_t{4}, size_t{33}, size_t{200}}) {
    for (PointId q = 0; q < 60; ++q) {
      const auto dispatched = tree.knn(ps[q], k);
      simd::force_scalar(true);
      const auto scalar = tree.knn(ps[q], k);
      simd::force_scalar(false);
      EXPECT_EQ(dispatched, scalar) << "k=" << k << " q=" << q;
      std::vector<PointId> want;
      for (const KnnHit& hit : brute_oracle(ps, ps[q], k)) {
        want.push_back(hit.id);
      }
      EXPECT_EQ(dispatched, want) << "k=" << k << " q=" << q;
    }
  }
}

TEST(KnnKernelFilter, HighDimAndTiesMatchScalarAndBruteOracle) {
  // The two fixed bugs this pins:
  //  * d=128 and k > leaf occupancy: the heap-cutoff filter masked leaf
  //    candidates with the entry-time k-th distance; with an unfilled heap
  //    (k larger than any single leaf) or late-probing dims the filter
  //    must pass EVERYTHING through to the exact refinement, never drop a
  //    true neighbor.
  //  * ties at exactly the k-th distance: duplicated points and partners at
  //    identical d2 must resolve by point id, identically on every variant
  //    and index, as the per-point oracle resolves them.
  Rng rng(8128);
  PointSet ps(128);
  std::vector<double> p(128);
  for (int i = 0; i < 500; ++i) {
    for (auto& x : p) x = rng.uniform(-5.0, 5.0);
    ps.add(p);
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.25) {
      ps.add(p);  // exact duplicate: d2 tie at every query
    } else if (roll < 0.5) {
      // Two partners at the same d2 from p, different ids: a tie exactly
      // at the k-th slot whenever the heap boundary lands on them.
      std::vector<double> partner = p;
      partner[0] += 2.0;
      ps.add(partner);
      partner = p;
      partner[0] -= 2.0;
      ps.add(partner);
    }
  }
  // Small leaves so k=64 exceeds any single leaf's occupancy.
  const KdTree tree(ps, KdTreeOptions{.leaf_size = 8, .build_threads = 1});
  const BruteForceIndex brute(ps);
  const QueryBudget exact;

  for (const size_t k : {size_t{1}, size_t{9}, size_t{64}, size_t{200}}) {
    for (PointId q = 0; q < 50; ++q) {
      const std::vector<KnnHit> oracle = brute_oracle(ps, ps[q], k);
      std::vector<KnnHit> hits;
      brute.knn_query(ps[q], k, exact, hits);
      EXPECT_EQ(hits, oracle) << "brute k=" << k << " q=" << q;
      hits.clear();
      tree.knn_query(ps[q], k, exact, hits);
      EXPECT_EQ(hits, oracle) << "kd-tree k=" << k << " q=" << q;
      hits.clear();
      simd::force_scalar(true);
      tree.knn_query(ps[q], k, exact, hits);
      simd::force_scalar(false);
      EXPECT_EQ(hits, oracle) << "scalar k=" << k << " q=" << q;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch control.
// ---------------------------------------------------------------------------

TEST(KernelDispatch, ForceScalarPinsFallbackAndResultsAreIdentical) {
  // Whatever the host dispatches, force_scalar(true) must land on the
  // scalar fallback, and a query batch run on each side must agree bit-
  // for-bit (same hits, same order, same counters).
  const PointSet ps = [] {
    Rng rng(555);
    synth::GaussianMixtureConfig cfg;
    cfg.n = 800;
    cfg.dim = 10;
    cfg.clusters = 3;
    cfg.sigma = 4.0;
    cfg.box_side = 60.0;
    return synth::gaussian_clusters(cfg, rng);
  }();
  const KdTree tree(ps, KdTreeOptions{.build_threads = 1});

  auto run_queries = [&] {
    std::vector<PointId> all;
    WorkCounters wc;
    ScopedCounters scope(&wc);
    std::vector<PointId> hits;
    for (PointId q = 0; q < 100; ++q) {
      hits.clear();
      tree.range_query(ps[q], 9.0, hits);
      all.insert(all.end(), hits.begin(), hits.end());
    }
    return std::make_pair(all, wc.distance_evals);
  };

  const auto dispatched = run_queries();
  simd::force_scalar(true);
  EXPECT_EQ(simd::active_variant(), simd::KernelVariant::kScalar);
  EXPECT_TRUE(simd::scalar_forced());
  const auto scalar = run_queries();
  simd::force_scalar(false);
  EXPECT_FALSE(simd::scalar_forced());

  EXPECT_EQ(dispatched.first, scalar.first);
  EXPECT_EQ(dispatched.second, scalar.second);
}

TEST(KernelDispatch, EnvVarPinsScalar) {
  // The forced-scalar ctest cell runs with SDB_SIMD=scalar in the
  // environment; in that cell the dispatcher must never leave the fallback.
  const char* env = std::getenv("SDB_SIMD");
  if (env == nullptr) {
    GTEST_SKIP() << "SDB_SIMD not set; covered by the forced-scalar cell";
  }
  EXPECT_EQ(simd::active_variant(), simd::KernelVariant::kScalar)
      << "SDB_SIMD=" << env << " must pin the scalar fallback";
}

TEST(KernelDispatch, VariantNamesAreStable) {
  EXPECT_STREQ(simd::variant_name(simd::KernelVariant::kScalar), "scalar");
  EXPECT_STREQ(simd::variant_name(simd::KernelVariant::kAvx2), "avx2");
  EXPECT_STREQ(simd::variant_name(simd::KernelVariant::kAvx512), "avx512");
  EXPECT_STREQ(simd::variant_name(simd::KernelVariant::kNeon), "neon");
  EXPECT_NE(simd::active_variant_name(), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: cluster labels may not depend on the kernel.
// ---------------------------------------------------------------------------

TEST(KernelDeterminism, ClusterLabelsByteIdenticalScalarVsSimd) {
  // Exactly-eps pairs make eps-membership a one-ulp question — if any
  // variant rounded differently, a boundary point would flip core/border
  // status and the labelings would diverge.
  Rng rng(2024);
  const double eps = 25.0;
  PointSet ps(10);
  std::vector<double> p(10), partner(10);
  for (int i = 0; i < 600; ++i) {
    for (auto& x : p) x = rng.uniform(0.0, 200.0);
    ps.add(p);
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.2) {
      partner = p;
      partner[rng.uniform_index(10)] += eps;
      ps.add(partner);
    } else if (roll < 0.3) {
      ps.add(p);  // duplicate
    }
  }
  const dbscan::DbscanParams params{eps, 4};
  const KdTree tree(ps, KdTreeOptions{.build_threads = 1});

  const auto with_dispatch = dbscan::dbscan_sequential(ps, tree, params);
  simd::force_scalar(true);
  const auto with_scalar = dbscan::dbscan_sequential(ps, tree, params);
  simd::force_scalar(false);

  EXPECT_EQ(with_dispatch.clustering.labels, with_scalar.clustering.labels);
  EXPECT_EQ(with_dispatch.core_points, with_scalar.core_points);
  EXPECT_EQ(with_dispatch.counters.distance_evals,
            with_scalar.counters.distance_evals);
  EXPECT_EQ(with_dispatch.counters.tree_nodes,
            with_scalar.counters.tree_nodes);
}

}  // namespace
}  // namespace sdb
