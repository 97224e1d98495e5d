// The executor kernel's sweep, written once: Algorithm 2 (local clustering)
// with Algorithm 3 (SEED placement) over one partition, for any source of
// neighborhoods.
//
// `core_neighbors(q, out)` is the source. It returns whether local point q
// is core and, when it is, appends to `out` (cleared by the sweep) the
// points the sweep enqueues from q. Two sources plug in:
//   * exact (local_dbscan): a budgeted range query over the broadcast
//     spatial index; q is core iff |out| >= minpts;
//   * kNN (knn::local_knn_dbscan): the broadcast eps-graph's global core
//     mask; `out` is q's CSR row filtered by the expansion rule.
// Everything else — the per-point state that stands in for the paper's
// Hashtable, the Queue, frontier dedup, SEED placement, the noise -> border
// cleanup and the counter tally — is the same for both, so both backends
// produce the same LocalClusterResult wire shape and charge the same
// hash/queue/seed work.
//
// The state is one 32-bit word per global point id, filled from the
// partition map when the task starts, so each neighbor costs one
// random access. The simulated clock still prices the paper's structures:
// every state read or write the Hashtable would make is a counted hash_op,
// every frontier push and pop a queue_op.
//
// Included only by the two kernels' .cpp files: each instantiates the sweep
// with its source inlined into the hot loop.
#pragma once

#include <algorithm>
#include <vector>

#include "core/local_dbscan.hpp"
#include "util/counters.hpp"

namespace sdb::dbscan {

template <typename CoreNeighbors>
LocalClusterResult partition_bfs(const Partitioning& partitioning,
                                 PartitionId partition,
                                 SeedStrategy seed_strategy,
                                 CoreNeighbors core_neighbors) {
  SDB_CHECK(partition >= 0 &&
                static_cast<u32>(partition) < partitioning.num_partitions,
            "partition id out of range");
  const auto& my_points = partitioning.parts[static_cast<size_t>(partition)];
  const auto& owner = partitioning.owner;

  LocalClusterResult result;
  result.partition = partition;

  // The state word: the top 2 bits are the point's kind, the low 30 its
  // payload. A claimed point's payload is the local index of the partial
  // cluster that claimed it (Algorithm 2 lines 20-22). Any other point's is
  // 1 + the index of the last cluster that enqueued it, or 0 if none has,
  // so "payload == this cluster's tag" is the frontier dedup test. A local
  // point's kind only moves forward: unvisited, visited, claimed.
  constexpr u32 kUnvisited = 0u << 30;  // local, not yet visited (line 5)
  constexpr u32 kVisited = 1u << 30;    // local, visited, not yet claimed
  constexpr u32 kClaimed = 2u << 30;    // local, in a partial cluster
  constexpr u32 kForeign = 3u << 30;    // owned by another partition
  constexpr u32 kKind = 3u << 30;
  constexpr u32 kPayload = ~kKind;
  // 4 bytes per global point: each host thread running a task holds one.
  std::vector<u32> state(owner.size(), kForeign);
  auto at = [&state](PointId r) -> u32& {
    return state[static_cast<size_t>(r)];
  };
  for (const PointId p : my_points) at(p) = kUnvisited;

  std::vector<PointId> neighbors;
  // The paper's Queue (LinkedList): pops advance a read cursor; each
  // cluster starts it empty, and dedup bounds it by the points it reaches.
  std::vector<PointId> frontier;
  u64 frontier_peak = 0;

  // Per-call counter batch: the expansion sweep increments hash/queue/seed
  // counters on every element, and a thread-local lookup per increment is
  // measurable at r1m scale. Tally locally, flush once through
  // counters::add — identical totals in every enclosing scope. (A source's
  // range queries flush their own per-query batches independently.)
  WorkCounters tally;

  // Algorithm 3 line 2 place flags, hoisted out of the cluster loop: the
  // per-cluster O(num_partitions) zero-fill showed up as allocator traffic
  // on many-cluster workloads. Only the entries dirtied by the previous
  // cluster are cleared.
  std::vector<char> seed_placed(partitioning.num_partitions, 0);
  std::vector<PartitionId> seed_dirty;

  for (const PointId p : my_points) {
    tally.hash_ops += 1;
    if ((at(p) & kKind) != kUnvisited) continue;  // line 5: processed
    at(p) |= kVisited;
    tally.hash_ops += 1;
    tally.points_processed += 1;

    neighbors.clear();
    if (!core_neighbors(p, neighbors)) {  // line 6
      result.noise.push_back(p);  // line 9 of Algorithm 2: mark as noise
      continue;
    }

    // New partial cluster seeded at local core point p.
    SDB_CHECK(result.clusters.size() < kPayload,
              "a partition needs fewer than 2^30 - 1 partial clusters");
    const auto index = static_cast<u32>(result.clusters.size());
    const u32 tag = index + 1;
    result.core_points.push_back(p);
    PartialCluster pc;
    pc.partition = partition;
    pc.uid = PartialCluster::make_uid(partition, index);
    pc.members.push_back(p);
    at(p) = kClaimed | index;
    tally.hash_ops += 1;

    // Algorithm 3 state: reset the hoisted place flags.
    for (const PartitionId d : seed_dirty) {
      seed_placed[static_cast<size_t>(d)] = 0;
    }
    seed_dirty.clear();

    // Frontier dedup (bugfix): the naive expansion pushes every neighbor of
    // every core point, so a dense cluster enqueues each point O(minpts)
    // times — O(n*minpts) queue memory and inflated queue_ops. Skip at push
    // time anything already claimed by this partition's sweep (its pop was
    // always a no-op: claimed implies visited, so neither expansion nor
    // membership would fire) and anything already queued for this cluster.
    // Pops see each id's FIRST occurrence in the original order, so
    // members/seeds/noise come out byte-identical to the naive loop.
    frontier.clear();
    size_t head = 0;
    auto enqueue = [&](PointId r) {
      u32& s = at(r);
      tally.hash_ops += 1;
      if ((s & kKind) == kClaimed) return;
      tally.hash_ops += 1;
      if ((s & kPayload) == tag) return;
      s = (s & kKind) | tag;
      frontier.push_back(r);
      tally.queue_ops += 1;
    };
    for (const PointId r : neighbors) enqueue(r);
    frontier_peak = std::max<u64>(frontier_peak, frontier.size() - head);

    while (head < frontier.size()) {
      const PointId q = frontier[head++];
      tally.queue_ops += 1;

      if ((at(q) & kKind) == kForeign) {
        // Foreign point -> SEED placement (Algorithm 3 lines 6-26).
        tally.seed_ops += 1;
        const PartitionId q_owner = owner[static_cast<size_t>(q)];
        switch (seed_strategy) {
          case SeedStrategy::kOnePerPartition:
            if (!seed_placed[static_cast<size_t>(q_owner)]) {
              seed_placed[static_cast<size_t>(q_owner)] = 1;  // place_flg
              seed_dirty.push_back(q_owner);
              pc.seeds.push_back(q);
            }
            break;
          case SeedStrategy::kAllForeign:
            // Push-time dedup pops each foreign point once per cluster, so
            // every pop is a new seed; the tally keeps the dedup lookup.
            tally.hash_ops += 1;
            pc.seeds.push_back(q);
            break;
        }
        continue;  // never expand foreign points: no peer communication
      }

      tally.hash_ops += 1;
      if ((at(q) & kKind) == kUnvisited) {  // line 13: q unvisited
        at(q) |= kVisited;
        tally.hash_ops += 1;
        tally.points_processed += 1;
        neighbors.clear();
        if (core_neighbors(q, neighbors)) {  // line 15
          // line 16-17: q is core, its neighborhood extends the frontier
          // (deduplicated — see `enqueue` above).
          result.core_points.push_back(q);
          for (const PointId r : neighbors) enqueue(r);
          frontier_peak =
              std::max<u64>(frontier_peak, frontier.size() - head);
        }
      }

      // line 20-22: claim q for this cluster if unclaimed.
      tally.hash_ops += 1;
      if ((at(q) & kKind) != kClaimed) {
        at(q) = kClaimed | index;
        tally.hash_ops += 1;
        pc.members.push_back(q);
      }
    }
    result.clusters.push_back(std::move(pc));
  }

  // A locally-noise point may have been claimed later as a border point of a
  // local cluster (noise -> border promotion); drop those from the noise
  // list so the driver sees consistent facts. A point reached only by a
  // foreign cluster stays noise here; the driver merge adopts it through
  // that cluster's seed record.
  std::vector<PointId> true_noise;
  true_noise.reserve(result.noise.size());
  for (const PointId p : result.noise) {
    tally.hash_ops += 1;
    if ((at(p) & kKind) != kClaimed) true_noise.push_back(p);
  }
  result.noise = std::move(true_noise);
  tally.frontier_peak = frontier_peak;
  counters::add(tally);
  return result;
}

}  // namespace sdb::dbscan
