// Merge scaling bench + perf-regression baseline (BENCH_merge.json).
//
// Reproduces the driver-side merge bottleneck behind the paper's Figure 8d
// speedup collapse (9279 partial clusters at 32 cores) and measures the fix:
//
//   paper     — Algorithm 4 single pass. Its "find master partial cluster
//               index" is a linear scan over the owner partition's cluster
//               list, so total work grows ~ edges x clusters: SUPERLINEAR in
//               the partial-cluster count.
//   uf-seq    — sequential union-find merge (one pass over the edges).
//
// The deterministic merge_ops column carries the claim, independently of
// the bench host: paper ops-per-edge rises with m and stays above the
// union-find merge's at every scale. Every run checks that claim and fails
// if it does not hold. Results print as tables and are written as
// machine-readable JSON (schema in README "Merge bench"); --smoke shrinks
// the scales and runs under ctest -L perf.
#include "bench_common.hpp"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/merge.hpp"
#include "util/rng.hpp"

using namespace sdb;

namespace {

/// Synthetic partial-cluster topology: `partitions` partitions holding
/// `clusters_per_partition` clusters of `kClusterSize` members each, every
/// cluster carrying `kSeedsPerCluster` seeds aimed at random foreign
/// members (plus a noise pool so the border-adoption path runs). This is
/// the shape of the r1m run that produced the paper's 9279 partial
/// clusters, reduced to its merge-relevant skeleton.
constexpr u32 kClusterSize = 8;
constexpr u32 kSeedsPerCluster = 4;
constexpr u32 kNoisePool = 16;

std::vector<dbscan::LocalClusterResult> make_topology(
    u32 partitions, u32 clusters_per_partition, u64 seed, u64* num_points) {
  const u64 block =
      static_cast<u64>(clusters_per_partition) * kClusterSize + kNoisePool;
  *num_points = block * partitions;
  Rng rng(seed);
  std::vector<dbscan::LocalClusterResult> locals(partitions);
  for (u32 p = 0; p < partitions; ++p) {
    auto& local = locals[p];
    local.partition = static_cast<PartitionId>(p);
    const PointId base = static_cast<PointId>(p * block);
    for (u32 c = 0; c < clusters_per_partition; ++c) {
      dbscan::PartialCluster pc;
      pc.partition = local.partition;
      pc.uid = dbscan::PartialCluster::make_uid(local.partition, c);
      for (u32 k = 0; k < kClusterSize; ++k) {
        const PointId id = base + c * kClusterSize + k;
        pc.members.push_back(id);
        if (k < kClusterSize / 2) local.core_points.push_back(id);
      }
      local.clusters.push_back(std::move(pc));
    }
    for (u32 k = 0; k < kNoisePool; ++k) {
      local.noise.push_back(base + static_cast<PointId>(block) - kNoisePool +
                            k);
    }
  }
  for (u32 p = 0; p < partitions; ++p) {
    for (auto& pc : locals[p].clusters) {
      for (u32 s = 0; s < kSeedsPerCluster; ++s) {
        u32 q = static_cast<u32>(rng.uniform_index(partitions - 1));
        if (q >= p) ++q;
        const PointId q_base = static_cast<PointId>(q * block);
        if (rng.chance(0.15)) {
          pc.seeds.push_back(q_base + static_cast<PointId>(block) -
                             kNoisePool +
                             static_cast<PointId>(rng.uniform_index(kNoisePool)));
        } else {
          pc.seeds.push_back(
              q_base +
              static_cast<PointId>(rng.uniform_index(
                  static_cast<u64>(clusters_per_partition) * kClusterSize)));
        }
      }
    }
  }
  return locals;
}

struct Measured {
  double wall_ms = 0.0;  ///< best of reps
  u64 merge_ops = 0;
};

Measured measure(const std::vector<dbscan::LocalClusterResult>& locals,
                 u64 num_points, dbscan::MergeStrategy strategy, int reps) {
  Measured out;
  out.wall_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    dbscan::MergeOptions opt;
    opt.strategy = strategy;
    Stopwatch sw;
    const auto merged = dbscan::merge_partial_clusters(locals, num_points, opt);
    out.wall_ms = std::min(out.wall_ms, sw.millis());
    out.merge_ops = merged.counters.merge_ops;
  }
  return out;
}

struct ScaleReport {
  u32 partitions = 0;
  u64 m = 0;       ///< total partial clusters
  u64 edges = 0;
  u64 points = 0;
  Measured paper;
  Measured uf_seq;

  [[nodiscard]] double ops_per_edge(const Measured& strategy) const {
    return static_cast<double>(strategy.merge_ops) /
           static_cast<double>(edges);
  }
};

void write_json(const std::string& path, const std::string& mode, u64 seed,
                const std::vector<ScaleReport>& reports) {
  FILE* f = std::fopen(path.c_str(), "w");
  SDB_CHECK(f != nullptr, "cannot open bench output file");
  std::fprintf(f, "{\n  \"bench\": \"merge\",\n  \"mode\": \"%s\",\n",
               mode.c_str());
  std::fprintf(f, "  \"host_threads\": %u,\n  \"seed\": %llu,\n",
               std::max(1u, std::thread::hardware_concurrency()),
               static_cast<unsigned long long>(seed));
  std::fprintf(f, "  \"scales\": [\n");
  for (size_t i = 0; i < reports.size(); ++i) {
    const ScaleReport& r = reports[i];
    std::fprintf(f,
                 "    {\"partitions\": %u, \"partial_clusters\": %llu, "
                 "\"edges\": %llu, \"points\": %llu,\n",
                 r.partitions, static_cast<unsigned long long>(r.m),
                 static_cast<unsigned long long>(r.edges),
                 static_cast<unsigned long long>(r.points));
    std::fprintf(f,
                 "     \"paper\": {\"wall_ms\": %.3f, \"merge_ops\": %llu, "
                 "\"ops_per_edge\": %.2f},\n",
                 r.paper.wall_ms,
                 static_cast<unsigned long long>(r.paper.merge_ops),
                 r.ops_per_edge(r.paper));
    std::fprintf(f,
                 "     \"uf_seq\": {\"wall_ms\": %.3f, \"merge_ops\": %llu, "
                 "\"ops_per_edge\": %.2f},\n",
                 r.uf_seq.wall_ms,
                 static_cast<unsigned long long>(r.uf_seq.merge_ops),
                 r.ops_per_edge(r.uf_seq));
    std::fprintf(f, "     \"merge_ops_blowup\": %.2f}%s\n",
                 static_cast<double>(r.paper.merge_ops) /
                     static_cast<double>(r.uf_seq.merge_ops),
                 i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.add_bool("smoke", false,
                 "seconds-scale run for the perf ctest label (small scales, "
                 "fewer reps)");
  flags.add_string("out", "BENCH_merge.json", "JSON output path");
  flags.add_i64("seed", 42, "topology seed");
  flags.add_bool("csv", false, "also print tables as CSV");
  flags.parse(argc, argv);

  const bool smoke = flags.boolean("smoke");
  const u64 seed = static_cast<u64>(flags.i64_flag("seed"));
  const int reps = smoke ? 2 : 3;

  // Partial-cluster scales. The largest full cell matches the paper's r1m
  // observation (9279 partial clusters, 32 partitions).
  struct Scale {
    u32 partitions;
    u32 clusters_per_partition;
  };
  const std::vector<Scale> scales =
      smoke ? std::vector<Scale>{{8, 25}, {16, 50}}
            : std::vector<Scale>{{8, 125}, {16, 187}, {32, 290}};

  std::vector<ScaleReport> reports;
  for (const Scale& scale : scales) {
    u64 num_points = 0;
    const auto locals = make_topology(scale.partitions,
                                      scale.clusters_per_partition, seed,
                                      &num_points);
    ScaleReport r;
    r.partitions = scale.partitions;
    r.m = static_cast<u64>(scale.partitions) * scale.clusters_per_partition;
    r.edges = r.m * kSeedsPerCluster;
    r.points = num_points;

    r.paper = measure(locals, num_points,
                      dbscan::MergeStrategy::kPaperSinglePass, reps);
    r.uf_seq = measure(locals, num_points, dbscan::MergeStrategy::kUnionFind,
                       reps);
    SDB_CHECK(r.ops_per_edge(r.paper) > r.ops_per_edge(r.uf_seq),
              "paper merge must cost more per edge than union-find");
    SDB_CHECK(reports.empty() ||
                  r.ops_per_edge(r.paper) >
                      reports.back().ops_per_edge(reports.back().paper),
              "paper merge ops per edge must rise with m");

    TablePrinter table({"strategy", "wall_ms", "merge_ops", "ops/edge"});
    table.add_row({"paper", TablePrinter::cell(r.paper.wall_ms, 2),
                   TablePrinter::cell(r.paper.merge_ops),
                   TablePrinter::cell(r.ops_per_edge(r.paper), 1)});
    table.add_row({"uf-seq", TablePrinter::cell(r.uf_seq.wall_ms, 2),
                   TablePrinter::cell(r.uf_seq.merge_ops),
                   TablePrinter::cell(r.ops_per_edge(r.uf_seq), 1)});
    bench::emit(table,
                "merge strategies: m=" + std::to_string(r.m) + " clusters, " +
                    std::to_string(r.edges) + " edges (" +
                    std::to_string(scale.partitions) + " partitions)",
                flags.boolean("csv"));
    reports.push_back(r);
  }

  write_json(flags.string("out"), smoke ? "smoke" : "full", seed, reports);
  return 0;
}
