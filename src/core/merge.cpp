#include "core/merge.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "spatial/union_find.hpp"

namespace sdb::dbscan {

const char* merge_strategy_name(MergeStrategy s) {
  switch (s) {
    case MergeStrategy::kPaperSinglePass: return "paper-single-pass";
    case MergeStrategy::kUnionFind: return "union-find";
  }
  return "?";
}

namespace {

constexpr i64 kNone = -1;

/// Flatten, filter, and uid-canonicalize the partial clusters.
///
/// The sort makes the merge invariant to the ARRIVAL order of partial
/// results: task retries, speculative re-execution and scheduling jitter
/// permute `locals`, and everything downstream — member ownership,
/// union-find indices, label ids, border-claim priority — keys off
/// positions in this list (tests/test_merge.cpp
/// OrderInvariantAcrossArrivalPermutations).
std::vector<const PartialCluster*> canonical_clusters(
    const std::vector<LocalClusterResult>& locals, const MergeOptions& options,
    MergeResult* result) {
  std::vector<const PartialCluster*> pcs;
  for (const auto& local : locals) {
    for (const auto& pc : local.clusters) {
      if (options.min_partial_cluster_size > 0 &&
          pc.members.size() < options.min_partial_cluster_size) {
        ++result->stats.filtered_partial_clusters;
        continue;
      }
      pcs.push_back(&pc);
    }
  }
  std::sort(pcs.begin(), pcs.end(),
            [](const PartialCluster* a, const PartialCluster* b) {
              return a->uid < b->uid;
            });
  result->stats.partial_clusters = pcs.size();
  for (const auto* pc : pcs) {
    result->stats.max_partial_cluster_size = std::max<u64>(
        result->stats.max_partial_cluster_size, pc->members.size());
  }
  return pcs;
}

/// Algorithm 4 and the sound union-find variant over the uid-sorted
/// cluster list.
void merge_sequential(const std::vector<LocalClusterResult>& locals,
                      const std::vector<const PartialCluster*>& pcs,
                      u64 num_points, const MergeOptions& options,
                      MergeResult* result) {
  const size_t m = pcs.size();

  // Global facts: which partial cluster owns each point, which points are
  // core. (The driver has all LocalClusterResults at this stage — this is
  // the "analyze partial clusters based on the placed SEEDs" of Algorithm 2
  // line 30.)
  std::vector<i64> member_of(num_points, kNone);
  std::vector<char> is_core(num_points, 0);
  for (size_t i = 0; i < m; ++i) {
    for (const PointId p : pcs[i]->members) {
      member_of[static_cast<size_t>(p)] = static_cast<i64>(i);
      counters::merge_ops(1);
    }
  }
  for (const auto& local : locals) {
    for (const PointId p : local.core_points) {
      is_core[static_cast<size_t>(p)] = 1;
    }
  }

  // Ordinal of each partial cluster within its partition's list, and the
  // per-partition list sizes: Algorithm 4's "find master partial cluster
  // index" scans the owner partition's clusters (the owner is known from
  // the seed's index range), so that scan length is what the paper-faithful
  // merge charges per seed.
  std::vector<u64> ordinal(m, 0);
  std::unordered_map<PartitionId, u64> partition_counts;
  for (size_t i = 0; i < m; ++i) {
    ordinal[i] = partition_counts[pcs[i]->partition]++;
  }

  UnionFind uf(m);
  // border_claim[q] = partial cluster that adopts unclaimed foreign point q.
  std::vector<std::pair<PointId, size_t>> border_claims;

  switch (options.strategy) {
    case MergeStrategy::kPaperSinglePass: {
      // Algorithm 4: statuses gate which clusters get their seeds processed.
      std::vector<char> finished(m, 0);
      for (size_t i = 0; i < m; ++i) {
        if (finished[i]) continue;  // line 2: only 'unfinished'
        for (const PointId q : pcs[i]->seeds) {  // line 3: dig out seeds
          ++result->stats.seeds_examined;
          counters::merge_ops(1);
          const i64 j = member_of[static_cast<size_t>(q)];
          // Algorithm 4 line 5 "find master partial cluster index" is a
          // LINEAR SCAN in the paper (no inverted index is described) over
          // the seed's owner partition's cluster list. We resolve via
          // member_of but charge the scan the paper's implementation
          // performs — the super-linear driver term behind the Figure 8d
          // speedup drop at 32 cores (9279 partial clusters).
          if (j >= 0) {
            counters::merge_ops(ordinal[static_cast<size_t>(j)] + 1);
          } else {
            // Not found anywhere: full scan of one partition's list; charge
            // the average list length.
            counters::merge_ops(
                m / std::max<size_t>(1, partition_counts.size()) + 1);
          }
          if (j >= 0 && static_cast<size_t>(j) != i) {
            // line 5-7: master found (ANY regular membership qualifies —
            // the paper does not check core-ness), merge, mark finished.
            if (uf.unite(i, static_cast<size_t>(j))) ++result->stats.merges;
            finished[static_cast<size_t>(j)] = 1;
          } else if (j == kNone) {
            // Seed points to a foreign point that is noise in its own
            // partition: a cross-partition border point; adopt it (the
            // paper keeps seeds in the merged member list, Figure 4b).
            border_claims.emplace_back(q, i);
          }
        }
        finished[i] = 1;  // line 9
      }
      break;
    }
    case MergeStrategy::kUnionFind: {
      // Process EVERY cluster's seeds; fuse only through core seeds.
      for (size_t i = 0; i < m; ++i) {
        for (const PointId q : pcs[i]->seeds) {
          ++result->stats.seeds_examined;
          counters::merge_ops(1);
          const i64 j = member_of[static_cast<size_t>(q)];
          if (is_core[static_cast<size_t>(q)] && j >= 0) {
            // A core point is always a regular member of its own partition's
            // clustering (j < 0 can only happen when the small-cluster
            // filter dropped that cluster — fall through to adoption).
            if (static_cast<size_t>(j) != i &&
                uf.unite(i, static_cast<size_t>(j))) {
              ++result->stats.merges;
            }
          } else if (j == kNone) {
            // Non-core, unclaimed anywhere: cross-partition border point.
            border_claims.emplace_back(q, i);
          }
          // Non-core seed already claimed by its own partition: border-point
          // assignment ambiguity — leave it where it is (sequential DBSCAN
          // also assigns such points to one adjacent cluster arbitrarily).
        }
      }
      break;
    }
  }

  // Emit dense labels by union-find root.
  result->clustering.labels.assign(num_points, kNoise);
  std::vector<ClusterId> root_label(m, kUnlabeled);
  ClusterId next = 0;
  for (size_t i = 0; i < m; ++i) {
    const size_t root = uf.find(i);
    if (root_label[root] == kUnlabeled) root_label[root] = next++;
    const ClusterId label = root_label[root];
    for (const PointId p : pcs[i]->members) {
      result->clustering.labels[static_cast<size_t>(p)] = label;
      counters::merge_ops(1);
    }
  }
  // Border adoptions (first claim wins, deterministic in pc order).
  for (const auto& [q, i] : border_claims) {
    ClusterId& l = result->clustering.labels[static_cast<size_t>(q)];
    if (l == kNoise) {
      l = root_label[uf.find(i)];
      ++result->stats.border_claims;
    }
  }
  result->clustering.num_clusters = static_cast<u64>(next);
}

}  // namespace

MergeResult merge_partial_clusters(
    const std::vector<LocalClusterResult>& locals, u64 num_points,
    const MergeOptions& options) {
  MergeResult result;
  ScopedCounters scope(&result.counters);

  const std::vector<const PartialCluster*> pcs =
      canonical_clusters(locals, options, &result);
  merge_sequential(locals, pcs, num_points, options, &result);
  return result;
}

}  // namespace sdb::dbscan
