#include "knn/knn_backend.hpp"

#include <algorithm>
#include <deque>

#include "core/partition_bfs.hpp"

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

  // Pass 1: in-eps prefix of every row -> directed edge lists + core mask.
  // Rows are ascending by (d2, id), so the in-eps prefix is contiguous.
  std::vector<std::vector<std::pair<PointId, std::uint8_t>>> adj(n);
  for (size_t i = 0; i < n; ++i) {
    const auto pid = static_cast<PointId>(i);
    const auto ids = graph.row_ids(pid);
    const auto d2s = graph.row_d2(pid);
    u32 in_eps = 0;
    for (u32 s = 0; s < graph.k(); ++s) {
      if (ids[s] == kNoNeighbor || d2s[s] > eps2) break;
      ++in_eps;
      adj[i].emplace_back(ids[s], kFwd);
      adj[static_cast<size_t>(ids[s])].emplace_back(pid, kRev);
    }
    // Core: the point itself plus its in-eps row reaches minpts.
    if (1 + static_cast<i64>(in_eps) >= params.minpts) g.core_[i] = 1;
  }

  // Pass 2: per-row sort by target and OR the flags of duplicate targets
  // (an edge seen both forward and reverse becomes kMutual), then pack CSR.
  g.offsets_.assign(n + 1, 0);
  u64 total = 0;
  for (size_t i = 0; i < n; ++i) {
    auto& row = adj[i];
    std::sort(row.begin(), row.end());
    size_t w = 0;
    for (size_t r = 0; r < row.size(); ++r) {
      if (w > 0 && row[w - 1].first == row[r].first) {
        row[w - 1].second |= row[r].second;
      } else {
        row[w++] = row[r];
      }
    }
    row.resize(w);
    total += w;
    g.offsets_[i + 1] = total;
  }
  g.targets_.resize(total);
  g.flags_.resize(total);
  for (size_t i = 0; i < n; ++i) {
    u64 at = g.offsets_[i];
    for (const auto& [t, f] : adj[i]) {
      g.targets_[at] = t;
      g.flags_[at] = f;
      ++at;
    }
  }
  return g;
}

u64 KnnEpsGraph::num_core() const {
  u64 c = 0;
  for (const char b : core_) c += b != 0 ? 1 : 0;
  return c;
}

u64 KnnEpsGraph::digest() const {
  u64 h = 1469598103934665603ull;
  auto fold = [&h](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t b = 0; b < size; ++b) {
      h ^= bytes[b];
      h *= 1099511628211ull;
    }
  };
  fold(&n_, sizeof(n_));
  fold(&minpts_, sizeof(minpts_));
  fold(offsets_.data(), offsets_.size() * sizeof(u64));
  fold(targets_.data(), targets_.size() * sizeof(PointId));
  fold(flags_.data(), flags_.size());
  fold(core_.data(), core_.size());
  return h;
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
