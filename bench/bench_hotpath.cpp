// Hot-path benchmark + perf-regression baseline (BENCH_hotpath.json).
//
// Three sections:
//   build  — kd-tree construction wall time, sequential and over the
//            thread pool;
//   query  — exact range-query throughput through the executor's
//            range_query_budgeted entry point, with the dispatched SIMD
//            kernel and with dispatch pinned to the scalar fallback;
//   e2e    — the full spark_dbscan pipeline wall time, at one host thread
//            and, for r1m, exact and pruned at the default host threads.
// Every run SDB_CHECKs the query section's neighbour totals and
// distance_evals: the exact query, which scans its reached leaves in
// batches, must match the same descent scanning each leaf as it is reached
// (a neighbour budget that never fills), and the forced-scalar rerun.
// Results print as tables and are also written as machine-readable JSON
// (schema documented in README "Hot-path bench") so every future PR can
// diff its perf trajectory against the committed BENCH_hotpath.json.
//
// --smoke shrinks the datasets so the run finishes in seconds; it is wired
// into ctest under the `perf` label as a build-and-run regression smoke.
#include "bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "geom/distance_simd.hpp"

using namespace sdb;

namespace {

struct BuildNumbers {
  double seq_ms = 0.0;       ///< 1 build thread
  double parallel_ms = 0.0;  ///< --threads build threads
};

struct QueryNumbers {
  u64 queries = 0;
  double qps = 0.0;
  double scalar_qps = 0.0;  ///< forced-scalar kernel
  u64 distance_evals = 0;
  u64 neighbors = 0;
};

struct E2eNumbers {
  bool pruned = false;
  u32 host_threads = 0;  ///< threads that ran the executor tasks
  u32 cores = 0;
  double wall_s = 0.0;
  double sim_total_s = 0.0;
};

struct ScalingPoint {
  unsigned threads = 1;
  double build_ms = 0.0;   ///< parallel build, best of reps
  double query_qps = 0.0;  ///< aggregate across `threads` query threads
};

struct DatasetReport {
  std::string name;
  size_t n = 0;
  int dim = 0;
  double eps = 0.0;
  BuildNumbers build;
  QueryNumbers query;
  std::vector<ScalingPoint> scaling;
  std::vector<E2eNumbers> e2e;
};

double best_build_ms(const PointSet& points, const KdTreeOptions& options,
                     int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    const KdTree tree(points, options);
    best = std::min(best, sw.millis());
  }
  return best;
}

/// Round-robins the configs inside each rep so host-speed drift (routine on
/// virtualized hosts) hits every config equally instead of penalizing
/// whichever one happens to run last; each config reports its best pass.
void best_build_ms_interleaved(const PointSet& points,
                               std::span<const KdTreeOptions> options,
                               std::span<double* const> out, int reps) {
  for (double* o : out) *o = 1e300;
  for (int r = 0; r < reps; ++r) {
    for (size_t c = 0; c < options.size(); ++c) {
      Stopwatch sw;
      const KdTree tree(points, options[c]);
      *out[c] = std::min(*out[c], sw.millis());
    }
  }
}

/// Exact range queries from `queries` dataset points, round-robin. Each
/// timed arm runs `reps` times and reports its best pass — on shared /
/// virtualized hosts the run-to-run swing is easily 2x, and best-of keeps
/// the SIMD/scalar RATIO meaningful even when a slow window hits one of
/// the passes.
QueryNumbers measure_queries(const PointSet& points, const KdTree& tree,
                             double eps, u64 queries, int reps) {
  QueryNumbers out;
  out.queries = queries;
  const size_t stride = std::max<size_t>(1, points.size() / queries);
  std::vector<PointId> hits;
  struct Totals {
    u64 neighbors = 0;
    u64 distance_evals = 0;
    double best_qps = 0.0;
  };
  auto run = [&](const QueryBudget& budget, int passes) {
    Totals t;
    for (int rep = 0; rep < passes; ++rep) {
      WorkCounters wc;
      Stopwatch sw;
      t.neighbors = 0;
      {
        ScopedCounters scope(&wc);
        u64 done = 0;
        for (size_t i = 0; done < queries && i < points.size();
             i += stride, ++done) {
          hits.clear();
          tree.range_query_budgeted(points[static_cast<PointId>(i)], eps,
                                    budget, hits);
          t.neighbors += hits.size();
        }
      }
      t.best_qps =
          std::max(t.best_qps, static_cast<double>(queries) / sw.seconds());
      t.distance_evals = wc.distance_evals;
    }
    return t;
  };
  const Totals exact = run(QueryBudget{}, reps);
  out.qps = exact.best_qps;
  out.distance_evals = exact.distance_evals;
  out.neighbors = exact.neighbors;

  // Scan-schedule self-check: a neighbor budget no query can fill makes the
  // descent scan each leaf as it is reached instead of in batches of
  // collected leaves; both must find and charge the same rows.
  QueryBudget unreachable;
  unreachable.max_neighbors = points.size() + 1;
  const Totals budgeted = run(unreachable, 1);
  SDB_CHECK(budgeted.neighbors == exact.neighbors,
            "unreachable-budget path must find the exact path's neighbors");
  SDB_CHECK(budgeted.distance_evals == exact.distance_evals,
            "unreachable-budget path must evaluate the same candidates");

  // Scalar-vs-SIMD self-check: the same tree re-queried with the dispatched
  // kernel pinned to the scalar fallback must report the exact same
  // distance_evals and neighbor totals (the kernels' bit-identical
  // contract, distance_simd.hpp). scalar_qps also isolates the kernel's
  // contribution from the traversal work shared by both variants.
  simd::force_scalar(true);
  const Totals scalar = run(QueryBudget{}, reps);
  simd::force_scalar(false);
  out.scalar_qps = scalar.best_qps;
  SDB_CHECK(scalar.distance_evals == exact.distance_evals,
            "forced-scalar rerun must evaluate the same candidates");
  SDB_CHECK(scalar.neighbors == exact.neighbors,
            "forced-scalar rerun must find the same neighbors");
  return out;
}

/// Aggregate range-query throughput with `threads` concurrent query threads
/// sharing one (immutable) tree. STRONG scaling: `total_queries` is fixed
/// across thread counts and partitioned — each thread runs its share over
/// its own CONTIGUOUS chunk of the dataset at the same stride every arm
/// uses (the same access shape as the real pipeline, where every executor
/// range-queries its own spatial partition's points), with its own hits
/// buffer and thread-local WorkCounters, so the only shared state is the
/// read-only index. Fixed total work + equal stride keeps the 1-vs-N rows
/// comparable: earlier versions fixed PER-THREAD work, so higher thread
/// counts queried at a denser stride and the rows measured different
/// locality, not scaling. Chunked (not interleaved) assignment matters on a
/// timeslicing host: threads roaming the whole dataset evict each other's
/// tree regions at every context switch.
///
/// Measurement discipline (the old version's 1->4 thread "regression" was
/// entirely harness artifact): every worker warms up (faults in its stack,
/// hits buffer, and first tree pages), parks on a start flag, and only once
/// ALL workers are parked does the clock start — so thread spawn cost and
/// ragged starts are off the books. Best-of-`reps` absorbs scheduler noise,
/// which dominates when `threads` exceeds the host's cores and the workers
/// are purely timeslicing.
double threaded_query_qps(const PointSet& points, const KdTree& tree,
                          double eps, u64 total_queries, unsigned threads,
                          int reps) {
  double best_qps = 0.0;
  const size_t stride =
      std::max<size_t>(1, points.size() / std::max<u64>(1, total_queries));
  for (int rep = 0; rep < reps; ++rep) {
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    std::atomic<u64> total{0};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        WorkCounters wc;
        ScopedCounters scope(&wc);
        std::vector<PointId> hits;
        const size_t chunk = points.size() / threads;
        const size_t begin = t * chunk;
        const size_t end = (t + 1 == threads) ? points.size() : begin + chunk;
        const u64 quota = total_queries / threads +
                          (t + 1 == threads ? total_queries % threads : 0);
        hits.clear();  // warmup query before signalling ready
        tree.range_query_budgeted(points[static_cast<PointId>(begin)], eps,
                                  QueryBudget{}, hits);
        ready.fetch_add(1, std::memory_order_release);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        u64 done = 0;
        for (size_t i = begin; done < quota && i < end; i += stride, ++done) {
          hits.clear();
          tree.range_query_budgeted(points[static_cast<PointId>(i)], eps,
                                    QueryBudget{}, hits);
        }
        total.fetch_add(done, std::memory_order_relaxed);
      });
    }
    while (ready.load(std::memory_order_acquire) < threads) {
      std::this_thread::yield();
    }
    Stopwatch sw;
    go.store(true, std::memory_order_release);
    for (std::thread& w : workers) w.join();
    best_qps = std::max(best_qps,
                        static_cast<double>(total.load()) / sw.seconds());
  }
  return best_qps;
}

/// One SparkDbscan job. host_threads 0 is the library default (every
/// core); the single-host-thread rows match the other benches'
/// deterministic cluster config.
E2eNumbers measure_e2e(const PointSet& points, const synth::DatasetSpec& spec,
                       u64 seed, bool pruned, u32 host_threads) {
  E2eNumbers out;
  out.pruned = pruned;
  out.cores = 8;
  dbscan::SparkDbscanConfig cfg;
  cfg.params = dbscan::DbscanParams{spec.eps, spec.minpts};
  cfg.partitions = out.cores;
  cfg.seed = seed;
  if (pruned) {
    cfg.budget.max_neighbors = 64;  // the paper's r1m pruning configuration
    cfg.min_partial_cluster_size = 4;
  }
  minispark::ClusterConfig cluster = bench::cluster_config(out.cores, seed);
  cluster.host_threads = host_threads;
  minispark::SparkContext ctx(cluster);
  out.host_threads = ctx.host_threads();
  dbscan::SparkDbscan dbscan(ctx, cfg);
  const auto report = dbscan.run(points);
  out.wall_s = report.wall_s;
  out.sim_total_s = report.sim_read_s + report.sim_tree_s +
                    report.sim_broadcast_s + report.sim_executor_s +
                    report.sim_collect_s + report.sim_merge_s;
  return out;
}

void write_json(const std::string& path, const std::string& mode,
                unsigned threads, u64 seed,
                const std::vector<DatasetReport>& reports) {
  FILE* f = std::fopen(path.c_str(), "w");
  SDB_CHECK(f != nullptr, "cannot open bench output file");
  std::fprintf(f, "{\n  \"bench\": \"hotpath\",\n  \"mode\": \"%s\",\n",
               mode.c_str());
  std::fprintf(f, "  \"kernel_variant\": \"%s\",\n",
               simd::active_variant_name());
  std::fprintf(f, "  \"host_threads\": %u,\n",
               std::max(1u, std::thread::hardware_concurrency()));
  std::fprintf(f, "  \"build_threads\": %u,\n  \"seed\": %llu,\n", threads,
               static_cast<unsigned long long>(seed));
  std::fprintf(f, "  \"datasets\": [\n");
  for (size_t i = 0; i < reports.size(); ++i) {
    const DatasetReport& r = reports[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"n\": %zu, \"dim\": %d, "
                 "\"eps\": %.3f,\n",
                 r.name.c_str(), r.n, r.dim, r.eps);
    std::fprintf(f,
                 "     \"build\": {\"seq_ms\": %.3f, \"parallel_ms\": %.3f, "
                 "\"parallel_speedup\": %.3f},\n",
                 r.build.seq_ms, r.build.parallel_ms,
                 r.build.seq_ms / r.build.parallel_ms);
    std::fprintf(f,
                 "     \"query\": {\"queries\": %llu, \"qps\": %.1f, "
                 "\"scalar_qps\": %.1f, \"simd_speedup\": %.3f, "
                 "\"neighbors\": %llu, \"distance_evals\": %llu}",
                 static_cast<unsigned long long>(r.query.queries),
                 r.query.qps, r.query.scalar_qps,
                 r.query.qps / r.query.scalar_qps,
                 static_cast<unsigned long long>(r.query.neighbors),
                 static_cast<unsigned long long>(r.query.distance_evals));
    std::fprintf(f, ",\n     \"scaling\": [");
    for (size_t s = 0; s < r.scaling.size(); ++s) {
      const ScalingPoint& sp = r.scaling[s];
      std::fprintf(f,
                   "%s{\"threads\": %u, \"build_ms\": %.3f, "
                   "\"query_qps\": %.1f}",
                   s == 0 ? "" : ", ", sp.threads, sp.build_ms, sp.query_qps);
    }
    std::fprintf(f, "],\n     \"e2e\": [");
    for (size_t e = 0; e < r.e2e.size(); ++e) {
      const E2eNumbers& row = r.e2e[e];
      std::fprintf(f,
                   "%s{\"pruned\": %s, \"host_threads\": %u, \"cores\": %u, "
                   "\"wall_s\": %.3f, \"sim_total_s\": %.3f}",
                   e == 0 ? "" : ",\n             ",
                   row.pruned ? "true" : "false", row.host_threads, row.cores,
                   row.wall_s, row.sim_total_s);
    }
    std::fprintf(f, "]}%s\n", i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.add_bool("smoke", false,
                 "seconds-scale run for the perf ctest label (small datasets, "
                 "fewer queries)");
  flags.add_string("out", "BENCH_hotpath.json", "JSON output path");
  flags.add_i64("threads", 0,
                "parallel build threads (0 = hardware concurrency)");
  flags.add_i64("queries", 2000, "range queries per dataset");
  flags.add_i64("seed", 42, "dataset seed");
  flags.add_bool("csv", false, "also print tables as CSV");
  flags.parse(argc, argv);

  const bool smoke = flags.boolean("smoke");
  const u64 seed = static_cast<u64>(flags.i64_flag("seed"));
  const u64 queries =
      static_cast<u64>(flags.i64_flag("queries")) / (smoke ? 4 : 1);
  unsigned threads = static_cast<unsigned>(flags.i64_flag("threads"));
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  const int build_reps = smoke ? 2 : 3;

  // 100k and 1M uniform points at the paper's d=10 (Table I r100k / r1m),
  // plus the clustered c100k, whose ~100-neighbor queries are bound by the
  // leaf scan rather than the descent; smoke shrinks the set so the
  // perf-label ctest stays in the seconds range. Every dataset runs one
  // e2e job at one host thread (r1m in the paper's pruned configuration);
  // r1m also runs exact and pruned at the default host threads, the pair
  // that shows what the pruning budget buys on a whole job.
  struct E2eRun {
    bool pruned;
    u32 host_threads;  // 0 = the library default (every core)
  };
  struct Run {
    const char* preset;
    double scale;
    std::vector<E2eRun> e2e;
  };
  const std::vector<Run> runs =
      smoke ? std::vector<Run>{{"r10k", 1.0, {{false, 1}}}}
            : std::vector<Run>{
                  {"r100k", 1.0, {{false, 1}}},
                  {"c100k", 1.0, {{false, 1}}},
                  {"r1m", 1.0, {{true, 1}, {false, 0}, {true, 0}}}};

  std::vector<DatasetReport> reports;
  for (const Run& run : runs) {
    const auto spec = *synth::find_preset(run.preset);
    const PointSet points = synth::generate(spec, seed, run.scale);
    DatasetReport r;
    r.name = spec.name;
    r.n = points.size();
    r.dim = points.dim();
    r.eps = spec.eps;

    const KdTreeOptions build_cfgs[] = {{.build_threads = 1},
                                        {.build_threads = threads}};
    double* const build_outs[] = {&r.build.seq_ms, &r.build.parallel_ms};
    best_build_ms_interleaved(points, build_cfgs, build_outs, build_reps);

    const KdTree tree(points, {.build_threads = threads});
    r.query = measure_queries(points, tree, spec.eps, queries, smoke ? 2 : 3);

    // Thread-scaling: parallel build and concurrent query throughput at
    // 1/2/4/hw threads (the ROADMAP's multi-thread build/query row).
    std::vector<unsigned> scale_threads = smoke
        ? std::vector<unsigned>{1, 2}
        : std::vector<unsigned>{1, 2, 4,
                                std::max(1u,
                                         std::thread::hardware_concurrency())};
    std::sort(scale_threads.begin(), scale_threads.end());
    scale_threads.erase(std::unique(scale_threads.begin(),
                                    scale_threads.end()),
                        scale_threads.end());
    // Interleave the reps across thread counts (round-robin, like the build
    // arms): on a throttled host, drift between back-to-back measurement
    // windows otherwise shows up as fake scaling dips.
    for (const unsigned t : scale_threads) {
      ScalingPoint sp;
      sp.threads = t;
      sp.build_ms = 1e300;
      sp.query_qps = 0.0;
      r.scaling.push_back(sp);
    }
    for (int rep = 0; rep < (smoke ? 2 : 5); ++rep) {
      for (size_t s = 0; s < scale_threads.size(); ++s) {
        ScalingPoint& sp = r.scaling[s];
        sp.build_ms = std::min(
            sp.build_ms,
            best_build_ms(points, {.build_threads = sp.threads}, 1));
        sp.query_qps = std::max(
            sp.query_qps, threaded_query_qps(points, tree, spec.eps, queries,
                                             sp.threads, 1));
      }
    }

    for (const E2eRun& e2e : run.e2e) {
      r.e2e.push_back(
          measure_e2e(points, spec, seed, e2e.pruned, e2e.host_threads));
    }
    reports.push_back(r);

    TablePrinter table({"metric", "baseline", "measured", "speedup"});
    table.add_row({"build: 1 vs " + std::to_string(threads) + " threads (ms)",
                   TablePrinter::cell(r.build.seq_ms, 1),
                   TablePrinter::cell(r.build.parallel_ms, 1),
                   TablePrinter::cell(r.build.seq_ms / r.build.parallel_ms,
                                      2)});
    table.add_row(
        {"query: scalar vs dispatched kernel (q/s)",
         TablePrinter::cell(r.query.scalar_qps, 0),
         TablePrinter::cell(r.query.qps, 0),
         TablePrinter::cell(r.query.qps / r.query.scalar_qps, 2)});
    for (const E2eNumbers& e2e : r.e2e) {
      table.add_row({std::string("e2e wall, ") +
                         (e2e.pruned ? "pruned" : "exact") +
                         ", host_threads=" +
                         std::to_string(e2e.host_threads) + " (s)",
                     "", TablePrinter::cell(e2e.wall_s, 2), ""});
    }
    bench::emit(table,
                "hot path: " + r.name + " (" + std::to_string(r.n) +
                    " points, d=" + std::to_string(r.dim) + ", " +
                    std::to_string(threads) + " build threads, kernel=" +
                    simd::active_variant_name() + ")",
                flags.boolean("csv"));

    TablePrinter scaling_table(
        {"threads", "build_ms", "build_speedup", "query_qps", "query_speedup"});
    for (const ScalingPoint& sp : r.scaling) {
      scaling_table.add_row(
          {TablePrinter::cell(static_cast<u64>(sp.threads)),
           TablePrinter::cell(sp.build_ms, 1),
           TablePrinter::cell(r.scaling.front().build_ms / sp.build_ms, 2),
           TablePrinter::cell(sp.query_qps, 0),
           TablePrinter::cell(sp.query_qps / r.scaling.front().query_qps, 2)});
    }
    bench::emit(scaling_table, "thread scaling: " + r.name,
                flags.boolean("csv"));
  }

  write_json(flags.string("out"), smoke ? "smoke" : "full", threads, seed,
             reports);
  return 0;
}
