#include "knn/knn_backend.hpp"

#include <algorithm>
#include <deque>

#include "core/partition_bfs.hpp"
#include "util/fnv.hpp"

namespace sdb::knn {

KnnEpsGraph KnnEpsGraph::build(const KnnGraph& graph,
                               const dbscan::DbscanParams& params) {
  SDB_CHECK(static_cast<i64>(graph.k()) >= params.minpts - 1,
            "KNN-DBSCAN needs k >= minpts - 1: a row shorter than "
            "minpts - 1 can never certify a core point");
  const size_t n = graph.size();
  const double eps2 = params.eps * params.eps;

  KnnEpsGraph g;
  g.n_ = n;
  g.minpts_ = params.minpts;
  g.core_.assign(n, 0);

  // Rows are ascending by (d2, id), so each row's in-eps part is a prefix.
  const auto in_eps = [&](size_t i) {
    const auto ids = graph.row_ids(static_cast<PointId>(i));
    const auto d2s = graph.row_d2(static_cast<PointId>(i));
    u32 m = 0;
    while (m < graph.k() && ids[m] != kNoNeighbor && d2s[m] <= eps2) ++m;
    return m;
  };

  // Pass 1: count every node's directed edges (its in-eps prefix forward,
  // each appearance in another prefix reverse) and set the core mask: the
  // point itself plus its in-eps row reaches minpts.
  std::vector<u64> start(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const u32 m = in_eps(i);
    start[i + 1] += m;
    for (const PointId j : graph.row_ids(static_cast<PointId>(i)).first(m)) {
      ++start[static_cast<size_t>(j) + 1];
    }
    if (1 + static_cast<i64>(m) >= params.minpts) g.core_[i] = 1;
  }
  for (size_t i = 0; i < n; ++i) start[i + 1] += start[i];

  // Pass 2: fill one flat array, each edge packed as target << 2 | flags.
  std::vector<u64> edges(start[n]);
  std::vector<u64> fill(start.begin(), start.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    for (const PointId j :
         graph.row_ids(static_cast<PointId>(i)).first(in_eps(i))) {
      edges[fill[i]++] = static_cast<u64>(j) << 2 | kFwd;
      edges[fill[static_cast<size_t>(j)]++] = static_cast<u64>(i) << 2 | kRev;
    }
  }

  // Sort each row by target and OR the flags of duplicate targets (an edge
  // seen both forward and reverse becomes kMutual), compacting the rows
  // into the CSR in place.
  g.offsets_.assign(n + 1, 0);
  g.targets_.resize(start[n]);
  g.flags_.resize(start[n]);
  u64 w = 0;
  for (size_t i = 0; i < n; ++i) {
    u64* const row_end = edges.data() + start[i + 1];
    std::sort(edges.data() + start[i], row_end);
    for (const u64* e = edges.data() + start[i]; e != row_end; ++e) {
      const auto target = static_cast<PointId>(*e >> 2);
      const auto flag = static_cast<std::uint8_t>(*e & kMutual);
      if (w > g.offsets_[i] && g.targets_[w - 1] == target) {
        g.flags_[w - 1] |= flag;
      } else {
        g.targets_[w] = target;
        g.flags_[w] = flag;
        ++w;
      }
    }
    g.offsets_[i + 1] = w;
  }
  g.targets_.resize(w);
  g.flags_.resize(w);
  return g;
}

u64 KnnEpsGraph::num_core() const {
  u64 c = 0;
  for (const char b : core_) c += b != 0 ? 1 : 0;
  return c;
}

u64 KnnEpsGraph::digest() const {
  u64 h = fnv1a_value(kFnvSeed, n_);
  h = fnv1a_value(h, minpts_);
  h = fnv1a(offsets_.data(), offsets_.size() * sizeof(u64), h);
  h = fnv1a(targets_.data(), targets_.size() * sizeof(PointId), h);
  h = fnv1a(flags_.data(), flags_.size(), h);
  return fnv1a(core_.data(), core_.size(), h);
}

namespace {

/// The expansion rule shared by both engines: from a CORE point, follow an
/// edge to j when j is a border candidate (any direction proves d <= eps)
/// or the edge is mutual (core-core connectivity).
inline bool expands_to(const KnnEpsGraph& g, PointId j, std::uint8_t flags) {
  return !g.is_core(j) || flags == KnnEpsGraph::kMutual;
}

}  // namespace

dbscan::Clustering knn_dbscan(const KnnEpsGraph& graph) {
  const size_t n = graph.size();
  dbscan::Clustering out;
  out.labels.assign(n, kNoise);
  std::deque<PointId> frontier;
  for (size_t p = 0; p < n; ++p) {
    const auto pid = static_cast<PointId>(p);
    if (!graph.is_core(pid) || out.labels[p] != kNoise) continue;
    const auto cluster = static_cast<ClusterId>(out.num_clusters++);
    out.labels[p] = cluster;
    frontier.clear();
    frontier.push_back(pid);
    while (!frontier.empty()) {
      const PointId q = frontier.front();
      frontier.pop_front();
      const auto targets = graph.neighbors(q);
      const auto flags = graph.edge_flags(q);
      for (size_t e = 0; e < targets.size(); ++e) {
        const PointId j = targets[e];
        if (!expands_to(graph, j, flags[e])) continue;
        if (out.labels[static_cast<size_t>(j)] != kNoise) continue;
        out.labels[static_cast<size_t>(j)] = cluster;
        // Only core points extend the frontier; borders are claimed leaves.
        if (graph.is_core(j)) frontier.push_back(j);
      }
    }
  }
  return out;
}

dbscan::LocalClusterResult local_knn_dbscan(
    const KnnEpsGraph& graph, const dbscan::Partitioning& partitioning,
    PartitionId partition, const LocalKnnDbscanConfig& config) {
  // The eps-graph source: coreness from the GLOBAL mask (never recomputed
  // locally, so every executor states the same facts to the merge), and a
  // core point's frontier is its CSR row filtered by the expansion rule.
  // The "query" is a row read: the spatial work was all prepaid by the
  // graph build's distance_evals.
  return dbscan::partition_bfs(
      partitioning, partition, config.seed_strategy,
      [&graph](PointId q, std::vector<PointId>& out) {
        if (!graph.is_core(q)) return false;
        const auto targets = graph.neighbors(q);
        const auto flags = graph.edge_flags(q);
        for (size_t e = 0; e < targets.size(); ++e) {
          if (expands_to(graph, targets[e], flags[e])) {
            out.push_back(targets[e]);
          }
        }
        return true;
      });
}

}  // namespace sdb::knn
