#include "knn/knn_graph.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <future>
#include <limits>
#include <queue>

#include "fault/injection.hpp"
#include "geom/distance.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace sdb::knn {

double KnnGraph::kth_distance2(PointId i) const {
  const u32 m = row_size(i);
  if (m < k_) return std::numeric_limits<double>::infinity();
  return row_d2(i)[k_ - 1];
}

u64 KnnGraph::digest() const {
  u64 h = fnv1a_value(kFnvSeed, n_);
  h = fnv1a_value(h, k_);
  h = fnv1a(ids_.data(), ids_.size() * sizeof(PointId), h);
  return fnv1a(d2_.data(), d2_.size() * sizeof(double), h);
}

namespace {

/// Bounded max-heap over lexicographic (d2, id) pairs backing one graph row
/// during construction — the same smaller-id tie-break at the k-th distance
/// as SpatialIndex::knn_query, so exact rows are unique and build-order
/// independent.
struct RowHeap {
  using Entry = std::pair<double, PointId>;
  std::priority_queue<Entry> heap;
  size_t cap = 0;

  void offer(double d2, PointId id) {
    const Entry cand{d2, id};
    if (heap.size() < cap) {
      heap.push(cand);
    } else if (cand < heap.top()) {
      heap.pop();
      heap.push(cand);
    }
  }
  [[nodiscard]] bool full() const { return heap.size() == cap; }
  [[nodiscard]] double worst() const { return heap.top().first; }

  /// Drain ascending into a graph row (padding already in place).
  void drain(std::span<PointId> ids, std::span<double> d2s) {
    for (size_t i = heap.size(); i-- > 0;) {
      ids[i] = heap.top().second;
      d2s[i] = heap.top().first;
      heap.pop();
    }
  }
};

/// Workers for a build over n points: sequential below ~4k points, where the
/// task-spawn overhead beats the parallelism.
unsigned build_threads(unsigned requested, size_t n) {
  return n < 4096 ? 1 : resolve_threads(requested);
}

/// Run fn(begin, end, worker) over [0, n) in fixed chunks — inline as
/// worker 0 when threads == 1, else `threads` pool workers pull chunks from
/// a shared counter. Which worker runs a chunk varies between runs, so
/// per-worker state may only be scratch or order-free tallies. A chunk's
/// exception is rethrown here, as on the inline path.
template <typename Fn>
void parallel_chunks(size_t n, unsigned threads, Fn&& fn) {
  if (threads <= 1) {
    fn(size_t{0}, n, 0u);
    return;
  }
  constexpr size_t kChunk = 256;
  std::atomic<size_t> next{0};
  ThreadPool pool(threads);
  std::vector<std::future<void>> done;
  done.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    done.push_back(pool.submit([&next, &fn, n, w] {
      for (size_t begin = next.fetch_add(kChunk); begin < n;
           begin = next.fetch_add(kChunk)) {
        fn(begin, std::min(n, begin + kChunk), w);
      }
    }));
  }
  for (auto& f : done) f.get();
}

/// Exact rows: a brute-force scan per point, block by block, with the kNN
/// heap-cutoff filter through the dispatched range scan (the kd-tree leaf
/// idiom — see KdTree::knn_query): once the row is full with a finite worst
/// distance, each block's rows within that distance at block entry are
/// offered, and the others could not enter the row. One distance_eval per
/// candidate row examined (n-1 per point: self excluded).
void build_exact(const PointSet& points, const KnnGraphConfig& cfg,
                 KnnGraph& graph, KnnGraphBuildStats& stats) {
  const size_t n = points.size();
  const size_t dim = static_cast<size_t>(points.dim());
  std::vector<double> strips(strip_padded_len(n, dim), 0.0);
  for (size_t i = 0; i < n; ++i) {
    strip_store_row(strips.data(), i, points[static_cast<PointId>(i)]);
  }
  const simd::RangeScanFn range = simd::detail::kernels().range;
  const unsigned threads = build_threads(cfg.threads, n);

  parallel_chunks(n, threads, [&](size_t begin, size_t end, unsigned) {
    RowHeap row;
    for (size_t p = begin; p < end; ++p) {
      const std::span<const double> q = points[static_cast<PointId>(p)];
      const auto offer = [&](size_t i) {
        const auto id = static_cast<PointId>(i);
        if (i != p) row.offer(squared_distance_uncounted(q, points[id]), id);
      };
      row.cap = cfg.k;
      for (size_t i = 0; i < n; i += kDistanceStrip) {
        const size_t stop = std::min(n, i + kDistanceStrip);
        if (row.full() && std::isfinite(row.worst())) {
          u64 unlimited = ~u64{0};
          strip_scan(range, q, row.worst(), strips.data(), i, stop, unlimited,
                     offer);
        } else {
          for (size_t j = i; j < stop; ++j) offer(j);
        }
      }
      row.drain(graph.mutable_row_ids(static_cast<PointId>(p)),
                graph.mutable_row_d2(static_cast<PointId>(p)));
    }
  });
  stats.distance_evals += n * (n - 1);
}

/// Cutoff-abandoned distance of one descent candidate: returns the exact
/// squared distance when it is <= cutoff, or the first partial sum at an
/// 8-dim checkpoint that is > cutoff (the caller must then reject WITHOUT
/// storing the value — the true distance is >= the partial, so the
/// candidate is strictly worse than the cutoff slot either way). The full
/// sum is the same ascending unfused mul+add sequence as
/// squared_distance_uncounted (project-wide -ffp-contract=off). The join
/// scores candidates in batches (score_lanes) and needs this only for the
/// NaN sums that batches cannot decide.
double squared_distance_abandoned(std::span<const double> a,
                                  std::span<const double> b, double cutoff) {
  double s = 0.0;
  size_t i = 0;
  const size_t dim = a.size();
  while (i + 8 <= dim) {
    for (size_t j = 0; j < 8; ++j) {
      const double d = a[i + j] - b[i + j];
      s += d * d;
    }
    i += 8;
    if (s > cutoff) return s;
  }
  for (; i < dim; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

/// Sorted-row insertion for descent: keep row ascending (d2, id), return
/// whether the candidate displaced a slot. Skips ids already present.
/// `flags` is the row's per-slot new/old bits for the incremental local
/// join — it shifts in lockstep with the slots and an inserted entry is
/// always marked new.
bool row_insert(std::span<PointId> ids, std::span<double> d2s,
                std::span<unsigned char> flags, u32 k, double d2,
                PointId id) {
  // Fast reject before the O(k) dedup scan: a full row turns away any
  // candidate that does not beat the worst (d2, id) slot — including a
  // candidate already present at that exact slot, which the scan below
  // would also reject.
  if (ids[k - 1] != kNoNeighbor &&
      std::pair{d2, id} >= std::pair{d2s[k - 1], ids[k - 1]}) {
    return false;
  }
  u32 m = 0;
  while (m < k && ids[m] != kNoNeighbor) {
    if (ids[m] == id) return false;
    ++m;
  }
  if (m == k) {
    // Full: must beat the worst (d2, id) pair.
    if (std::pair{d2, id} >= std::pair{d2s[k - 1], ids[k - 1]}) return false;
    --m;  // the worst slot is overwritten by the shift below
  }
  // Shift the tail up and insert in (d2, id) order.
  u32 pos = m;
  while (pos > 0 &&
         std::pair{d2s[pos - 1], ids[pos - 1]} > std::pair{d2, id}) {
    d2s[pos] = d2s[pos - 1];
    ids[pos] = ids[pos - 1];
    flags[pos] = flags[pos - 1];
    --pos;
  }
  d2s[pos] = d2;
  ids[pos] = id;
  flags[pos] = 1;
  return true;
}

/// Candidates the descent join scores together.
constexpr size_t kLanes = 4;

/// Interleaved candidate scoring for the descent join: squared distances
/// from q to kLanes rows at once, one independent accumulator per row so
/// the adds of different rows overlap (a single 64-d sum is one chain of 64
/// dependent adds). Each accumulator is the ascending-d unfused mul+add
/// sequence of squared_distance_uncounted, so a finished lane is
/// bit-identical to it. After every 8 dims, once EVERY lane's partial
/// exceeds `cutoff` the rest is skipped; the result then holds partials
/// > cutoff, which the caller must reject without storing.
std::array<double, kLanes> score_lanes(
    const double* q, const std::array<const double*, kLanes>& rows,
    size_t dim, double cutoff) {
  std::array<double, kLanes> acc{};
  for (size_t d = 0; d < dim;) {
    for (const size_t block_end = std::min(dim, d + 8); d < block_end; ++d) {
      for (size_t l = 0; l < kLanes; ++l) {
        const double diff = q[d] - rows[l][d];
        acc[l] += diff * diff;
      }
    }
    if (std::all_of(acc.begin(), acc.end(),
                    [cutoff](double s) { return s > cutoff; })) {
      break;
    }
  }
  return acc;
}

/// One descent worker's scratch, reused across its points and every round:
/// an epoch-stamped visited table over all n ids (one per worker, never per
/// chunk) and the fresh candidates of the current point.
struct JoinScratch {
  std::vector<u32> stamp;
  u32 epoch = 0;
  std::vector<PointId> fresh;
  std::vector<PointId> sort_buf;

  void start_point(size_t n) {
    if (stamp.empty()) stamp.assign(n, 0);
    if (++epoch == 0) {  // wrapped: stale stamps could alias the new epoch
      std::fill(stamp.begin(), stamp.end(), 0u);
      epoch = 1;
    }
    fresh.clear();
  }
  void visit(PointId c) {
    u32& seen = stamp[static_cast<size_t>(c)];
    if (seen == epoch) return;
    seen = epoch;
    fresh.push_back(c);
  }
  /// Sort `fresh` ascending: LSD radix over 8-bit digits, `passes` of them
  /// (enough for every id < n). A point has a few hundred fresh ids, where
  /// this costs several times less than std::sort's compare branches.
  void sort_fresh(unsigned passes) {
    sort_buf.resize(fresh.size());
    for (unsigned pass = 0; pass < passes; ++pass) {
      const unsigned shift = 8 * pass;
      std::array<u32, 257> start{};
      for (const PointId c : fresh) {
        ++start[((static_cast<u32>(c) >> shift) & 0xffu) + 1];
      }
      for (size_t b = 0; b < 256; ++b) start[b + 1] += start[b];
      for (const PointId c : fresh) {
        sort_buf[start[(static_cast<u32>(c) >> shift) & 0xffu]++] = c;
      }
      fresh.swap(sort_buf);
    }
  }
};

/// Offer `cands` (never q itself) to q's row: score kLanes candidates at a
/// time, then apply them in list order against the live worst slot. A full
/// row's worst slot bounds what can still matter, and it only improves as
/// candidates land, so a lane abandoned against the worst slot at the batch
/// start is strictly worse than the live one too, and is rejected without
/// touching the row. A finished lane is the exact distance, so each
/// candidate is accepted or rejected exactly as if its exact distance had
/// been offered to row_insert alone. Returns the slots updated.
u64 offer_candidates(const PointSet& points, PointId q_id,
                     std::span<const PointId> cands, KnnGraph& graph,
                     std::span<unsigned char> flags) {
  const size_t dim = static_cast<size_t>(points.dim());
  const u32 k = graph.k();
  const size_t m = cands.size();
  const auto ids = graph.mutable_row_ids(q_id);
  const auto d2s = graph.mutable_row_d2(q_id);
  const auto cutoff = [&] {
    return ids[k - 1] != kNoNeighbor ? d2s[k - 1]
                                     : std::numeric_limits<double>::infinity();
  };
  const double* q = points[q_id].data();
  u64 updates = 0;
  for (size_t i = 0; i < m; i += kLanes) {
    const size_t lanes = std::min(kLanes, m - i);
    // A short final batch pads with copies of its last candidate.
    std::array<const double*, kLanes> rows{};
    for (size_t l = 0; l < kLanes; ++l) {
      rows[l] = points[cands[i + std::min(l, lanes - 1)]].data();
    }
    // Candidate rows are scattered over the whole point set; start pulling
    // in the next batch while this one is scored.
    for (size_t l = i + kLanes; l < std::min(m, i + 2 * kLanes); ++l) {
      const double* row = points[cands[l]].data();
      for (size_t d = 0; d < dim; d += 8) __builtin_prefetch(row + d);
    }
    const std::array<double, kLanes> d2 = score_lanes(q, rows, dim, cutoff());
    for (size_t l = 0; l < lanes; ++l) {
      const PointId c = cands[i + l];
      const double live = cutoff();
      double dc = d2[l];
      // A NaN sum (non-finite coordinates) is neither above nor below the
      // cutoff, and no batch abandons it: whether it is rejected depends on
      // its partials before the NaN against the live slot.
      if (std::isnan(dc)) {
        dc = squared_distance_abandoned(points[q_id], points[c], live);
      }
      if (dc > live) continue;
      if (row_insert(ids, d2s, flags, k, dc, c)) ++updates;
    }
  }
  return updates;
}

/// Trees in the random-projection forest that starts the descent (swept in
/// EXPERIMENTS.md). One tree stalls: its leaves are closed cliques, so the
/// first round proposes only pairs its rows already scored and stops there.
constexpr u32 kForestTrees = 4;
/// A forest node splits while its range holds more than kForestLeafFactor * k
/// points, so a leaf holds 4k..8k of them when n > 8k (all n otherwise):
/// always at least k + 1, so every row fills from its own leaf.
constexpr u32 kForestLeafFactor = 8;

/// A forest member: its projection onto the current node's direction.
struct Projected {
  double key;
  PointId id;
};

/// (key, id) ascending with NaN keys last: a strict total order even on NaN
/// and infinite coordinates, which nth_element needs to be defined.
bool projected_less(const Projected& a, const Projected& b) {
  const bool a_nan = std::isnan(a.key);
  const bool b_nan = std::isnan(b.key);
  if (a_nan != b_nan) return b_nan;
  if (!a_nan && a.key != b.key) return a.key < b.key;
  return a.id < b.id;
}

/// A point's leaf in one tree: positions [begin, end) of the tree's order
/// (32 bits, as the join's radix sort assumes of point ids).
struct LeafSpan {
  u32 begin;
  u32 end;
};

/// Split order[begin, end) of one random-projection tree at the median of
/// the members' projections onto the difference of two members drawn from
/// an RNG keyed by (tree_seed, node), recursing until a range holds at most
/// `leaf_max` points; each leaf's members record it in `leaf_of`. A zero
/// direction (duplicate points) projects every member to 0, and the id
/// tie-break still halves the range. Nodes are numbered heap-style from 1.
void split_rp_node(const PointSet& points, u64 tree_seed, size_t leaf_max,
                   std::span<Projected> order, std::span<LeafSpan> leaf_of,
                   size_t begin, size_t end, u64 node) {
  const size_t m = end - begin;
  if (m <= leaf_max) {
    for (size_t i = begin; i < end; ++i) {
      leaf_of[static_cast<size_t>(order[i].id)] = {static_cast<u32>(begin),
                                                   static_cast<u32>(end)};
    }
    return;
  }
  Rng rng(tree_seed ^ (0x9e3779b97f4a7c15ull * node));
  const size_t ia = rng.uniform_index(m);
  size_t ib = rng.uniform_index(m - 1);
  if (ib >= ia) ++ib;
  const std::span<const double> a = points[order[begin + ia].id];
  const std::span<const double> b = points[order[begin + ib].id];
  for (size_t i = begin; i < end; ++i) {
    const std::span<const double> x = points[order[i].id];
    double s = 0.0;
    for (size_t d = 0; d < x.size(); ++d) s += x[d] * (a[d] - b[d]);
    order[i].key = s;
  }
  const size_t mid = begin + m / 2;
  std::nth_element(order.begin() + static_cast<std::ptrdiff_t>(begin),
                   order.begin() + static_cast<std::ptrdiff_t>(mid),
                   order.begin() + static_cast<std::ptrdiff_t>(end),
                   projected_less);
  split_rp_node(points, tree_seed, leaf_max, order, leaf_of, begin, mid,
                2 * node);
  split_rp_node(points, tree_seed, leaf_max, order, leaf_of, mid, end,
                2 * node + 1);
}

/// The descent's start: each row becomes the exact nearest of the point's
/// leaf-mates over a forest of kForestTrees random-projection trees. The
/// trees build as tasks and the leaf joins run in point chunks, each row
/// written only by its own point's chunk, so the rows do not depend on
/// `threads`. Candidates are offered in a fixed order (tree, then leaf
/// position), a mate shared by several trees once per tree, and each offer
/// is charged one distance_eval. Needs n >= k + 2.
void forest_start(const PointSet& points, const KnnGraphConfig& cfg,
                  unsigned threads, KnnGraph& graph,
                  std::span<unsigned char> new_flag,
                  KnnGraphBuildStats& stats) {
  const size_t n = points.size();
  const u32 k = cfg.k;
  const size_t leaf_max = static_cast<size_t>(kForestLeafFactor) * k;
  // Every buffer is allocated here, on the calling thread: a pool thread
  // that allocates gets a malloc arena of its own, which keeps its pages.
  std::vector<Projected> order(kForestTrees * n);
  std::vector<LeafSpan> leaf_of(kForestTrees * n);
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = {0.0, static_cast<PointId>(i % n)};
  }
  const u64 forest_seed = derive_seed(cfg.seed, "knn.forest");
  parallel_for(kForestTrees, threads, [&](size_t t) {
    split_rp_node(points, forest_seed ^ (0xbf58476d1ce4e5b9ull * (t + 1)),
                  leaf_max, std::span(order).subspan(t * n, n),
                  std::span(leaf_of).subspan(t * n, n), 0, n, 1);
  });

  std::vector<u64> worker_evals(threads, 0);
  std::vector<std::vector<PointId>> mates(threads);
  for (auto& m : mates) m.reserve(kForestTrees * leaf_max);
  parallel_chunks(n, threads, [&](size_t begin, size_t end, unsigned worker) {
    std::vector<PointId>& cands = mates[worker];
    u64 evals = 0;
    for (size_t p = begin; p < end; ++p) {
      const auto pid = static_cast<PointId>(p);
      cands.clear();
      for (u32 t = 0; t < kForestTrees; ++t) {
        const LeafSpan leaf = leaf_of[t * n + p];
        for (u32 i = leaf.begin; i < leaf.end; ++i) {
          const PointId c = order[t * n + i].id;
          if (c != pid) cands.push_back(c);
        }
      }
      evals += cands.size();
      offer_candidates(points, pid, cands, graph, new_flag.subspan(p * k, k));
    }
    worker_evals[worker] += evals;
  });
  for (const u64 e : worker_evals) stats.start_evals += e;
  stats.distance_evals += stats.start_evals;
}

/// NN-descent refinement (Dong et al., incremental local join): every
/// round, each point t gathers candidates from its sampled forward +
/// reverse neighborhood's neighborhoods (read from the PREVIOUS round's
/// rows — the double buffer is what makes the build bit-deterministic for
/// any thread count), evaluates the ones reachable through at least one
/// new edge, and improves its own row in place.
void build_descent(const PointSet& points, const KnnGraphConfig& cfg,
                   KnnGraph& graph, KnnGraphBuildStats& stats) {
  const size_t n = points.size();
  const u32 k = cfg.k;
  const unsigned threads = build_threads(cfg.threads, n);

  // Per-slot new/old bits for the incremental local join (Dong et al.): a
  // slot is "new" until the round that exploits it as a join pivot, and a
  // candidate pair is evaluated only when at least one of its two
  // connecting edges is new. Without this, late rounds re-propose (and
  // re-evaluate) almost exactly the candidate sets of earlier rounds —
  // the rows barely change, so neither do their neighbors-of-neighbors.
  std::vector<unsigned char> new_flag(n * k, 0);
  const auto row_flags = [&](size_t p) {
    return std::span<unsigned char>(new_flag.data() + p * k, k);
  };

  // --- Start: nearest leaf-mates in the random-projection forest. ---
  const Stopwatch start_wall;
  forest_start(points, cfg, threads, graph, new_flag, stats);
  stats.start_s = start_wall.seconds();

  // --- Refinement rounds. ---
  std::vector<PointId> prev_ids;
  std::vector<unsigned char> prev_flag;
  // Reverse adjacency of the snapshot in CSR form: point j's sources are
  // rev_ids[rev_off[j] .. rev_off[j + 1]), each with its edge's new bit.
  std::vector<size_t> rev_off(n + 1);
  std::vector<PointId> rev_ids;
  std::vector<unsigned char> rev_new;
  std::vector<JoinScratch> scratch(threads);
  const u64 target_slots = static_cast<u64>(n) * k;
  const u32 fwd_sample = std::min(k, cfg.sample);
  const auto radix_passes =
      static_cast<unsigned>((std::bit_width(n - 1) + 7) / 8);
  std::vector<u64> worker_evals(threads);
  std::vector<u64> worker_updates(threads);
  std::vector<u64> worker_drops(threads);
  for (u32 round = 0; round < cfg.max_rounds; ++round) {
    ++stats.rounds;
    const Stopwatch round_wall;
    // Snapshot the rows + new/old bits: candidate generation reads prev,
    // updates land in the live graph (each row written only by its owner
    // chunk).
    prev_ids.assign(n * k, kNoNeighbor);
    for (size_t p = 0; p < n; ++p) {
      const auto row = graph.row_ids(static_cast<PointId>(p));
      std::copy(row.begin(), row.end(), prev_ids.begin() + p * k);
    }
    prev_flag = new_flag;
    // Reverse adjacency from the snapshot, capped at `sample` per point
    // (sources arrive in ascending id order — deterministic cap). Each rev
    // entry carries its edge's new bit. Slots that participate in this
    // round's join — the sampled forward prefix of every row plus every
    // edge accepted into a rev list — are marked old in the live bits:
    // they have now been fully exploited as pivots, and only a future
    // insertion may make them new again. Capped-out rev edges keep their
    // bit and retry in a later round.
    std::fill(rev_off.begin(), rev_off.end(), 0);
    for (size_t e = 0; e < n * k; ++e) {
      const PointId j = prev_ids[e];
      if (j == kNoNeighbor) continue;
      size_t& count = rev_off[static_cast<size_t>(j) + 1];
      if (count < cfg.sample) ++count;
    }
    for (size_t j = 0; j < n; ++j) rev_off[j + 1] += rev_off[j];
    rev_ids.resize(rev_off[n]);
    rev_new.resize(rev_off[n]);
    std::vector<size_t> rev_fill(rev_off.begin(), rev_off.end() - 1);
    for (size_t p = 0; p < n; ++p) {
      for (u32 s = 0; s < k; ++s) {
        const PointId j = prev_ids[p * k + s];
        if (j == kNoNeighbor) break;
        size_t& fill = rev_fill[static_cast<size_t>(j)];
        if (fill < rev_off[static_cast<size_t>(j) + 1]) {
          rev_ids[fill] = static_cast<PointId>(p);
          rev_new[fill] = prev_flag[p * k + s];
          ++fill;
          new_flag[p * k + s] = 0;
        }
        if (s < fwd_sample) new_flag[p * k + s] = 0;
      }
    }

    std::fill(worker_evals.begin(), worker_evals.end(), 0);
    std::fill(worker_updates.begin(), worker_updates.end(), 0);
    std::fill(worker_drops.begin(), worker_drops.end(), 0);
    parallel_chunks(n, threads, [&](size_t begin, size_t end, unsigned worker) {
      JoinScratch& js = scratch[worker];
      u64 updates = 0;
      u64 evals = 0;
      u64 drops = 0;
      for (size_t t = begin; t < end; ++t) {
        const auto tid = static_cast<PointId>(t);
        // A candidate (t, c) reached through pivot edges (t~j, j~c) is
        // evaluated only if at least one of the two edges is new — an
        // old/old pair was already proposed the round both edges turned
        // old. So only fresh candidates are emitted: the pivot j itself
        // when its own edge is new, and j's sampled forward + reverse
        // neighbors over a new path. The stamp table keeps the first
        // emission of each id.
        js.start_point(n);
        js.stamp[t] = js.epoch;  // never a candidate of itself
        const auto expand = [&](PointId j, bool fj) {
          if (fj) js.visit(j);
          const size_t jb = static_cast<size_t>(j) * k;
          for (u32 s = 0; s < fwd_sample; ++s) {
            const PointId c = prev_ids[jb + s];
            if (c == kNoNeighbor) break;
            if (fj || prev_flag[jb + s] != 0) js.visit(c);
          }
          const size_t rj = static_cast<size_t>(j);
          for (size_t r = rev_off[rj]; r < rev_off[rj + 1]; ++r) {
            if (fj || rev_new[r] != 0) js.visit(rev_ids[r]);
          }
        };
        for (u32 s = 0; s < fwd_sample; ++s) {
          const PointId j = prev_ids[t * k + s];
          if (j == kNoNeighbor) break;
          expand(j, prev_flag[t * k + s] != 0);
        }
        for (size_t r = rev_off[t]; r < rev_off[t + 1]; ++r) {
          expand(rev_ids[r], rev_new[r] != 0);
        }
        // Ascending id order fixes the update count (row_insert is order
        // sensitive) and the fault site's hit order.
        js.sort_fresh(radix_passes);
        std::vector<PointId>& fresh = js.fresh;

        // Fault site: drop this candidate edge on the floor. NN-descent is
        // self-healing — later rounds re-propose surviving paths — so a
        // faulted build still converges to a usable graph (pinned by the
        // knn chaos cells).
        size_t m = 0;
        for (const PointId c : fresh) {
          if (SDB_INJECT("knn.graph.drop_edge")) {
            ++drops;
            continue;
          }
          fresh[m++] = c;
        }
        fresh.resize(m);
        // One eval is charged per candidate examined, abandoned or not —
        // the unified counter contract.
        evals += m;

        updates += offer_candidates(points, tid, fresh, graph, row_flags(t));
      }
      worker_updates[worker] += updates;
      worker_evals[worker] += evals;
      worker_drops[worker] += drops;
    });
    KnnGraphRoundStats& rs = stats.per_round.emplace_back();
    for (const u64 u : worker_updates) rs.updates += u;
    for (const u64 e : worker_evals) rs.distance_evals += e;
    for (const u64 d : worker_drops) stats.dropped_edges += d;
    rs.wall_s = round_wall.seconds();
    stats.updates += rs.updates;
    stats.distance_evals += rs.distance_evals;
    if (static_cast<double>(rs.updates) <
        cfg.termination_frac * static_cast<double>(target_slots)) {
      break;
    }
  }
}

}  // namespace

KnnGraph build_knn_graph(const PointSet& points, const KnnGraphConfig& cfg,
                         KnnGraphBuildStats* stats_out) {
  SDB_CHECK(cfg.k > 0, "kNN graph needs k > 0");
  const size_t n = points.size();
  KnnGraph graph(n, cfg.k);
  KnnGraphBuildStats stats;
  if (n > 1) {
    if (cfg.build == KnnGraphConfig::Build::kExact || n - 1 <= cfg.k) {
      build_exact(points, cfg, graph, stats);
    } else {
      build_descent(points, cfg, graph, stats);
    }
  }
  // One flush on the calling thread (worker tasks tally into plain chunk
  // slots, not thread-local sinks, so totals are exact and deterministic).
  counters::distance_evals(stats.distance_evals);
  if (stats_out != nullptr) *stats_out = stats;
  return graph;
}

double graph_recall(const KnnGraph& exact, const KnnGraph& approx) {
  SDB_CHECK(exact.size() == approx.size(), "graph size mismatch");
  if (exact.size() == 0) return 1.0;
  u64 total = 0;
  u64 hit = 0;
  for (size_t p = 0; p < exact.size(); ++p) {
    const auto pid = static_cast<PointId>(p);
    for (const PointId j : exact.row_ids(pid)) {
      if (j == kNoNeighbor) break;
      ++total;
      if (approx.has_edge(pid, j)) ++hit;
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(hit) / static_cast<double>(total);
}

}  // namespace sdb::knn
