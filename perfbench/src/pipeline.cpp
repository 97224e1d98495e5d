// The paper pipeline workloads: pipeline_c100k (exact backend) and
// knn_e10k64 (KNN-DBSCAN backend).
//
// Untraced runs time SparkDbscan::run_from_dfs, the call a user makes, from
// the call until labels come back. Traced runs alternate that call with a
// composition of the same work through each module's public functions —
// DFS read, text parse, index (or kNN graph) build, partitioning,
// broadcast, foreach_partition over the local clustering plus encode,
// decode, merge — with a span around every call, and require the composed
// labels to equal the untraced labels byte for byte.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "core/dbscan_seq.hpp"
#include "core/quality.hpp"
#include "core/spark_dbscan.hpp"
#include "knn/knn_backend.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/io.hpp"
#include "synth/presets.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {
namespace {

using sdb::PointSet;
using sdb::Stopwatch;
using sdb::u32;
using sdb::u64;
using sdb::WorkCounters;
namespace dbscan = sdb::dbscan;
namespace knn = sdb::knn;
namespace minispark = sdb::minispark;

struct PipelineWorkload {
  const char* name;
  const char* preset;
  dbscan::DbscanBackend backend;
  /// Datasets generated per run; jobs cycle through them. NN-descent on
  /// e10k64 stops after 5 or 6 rounds depending on the data, about a 15%
  /// difference in wall time, so a run over one dataset would report one of
  /// two figures depending on its seed. Averaged over eight, one dataset
  /// more or less of each kind moves the run's figure by about 2%. c100k's
  /// work varies by about 1% between seeds.
  u32 inputs;
};

constexpr PipelineWorkload kWorkloads[] = {
    {"pipeline_c100k", "c100k", dbscan::DbscanBackend::kExact, 1},
    {"knn_e10k64", "e10k64", dbscan::DbscanBackend::kKnn, 8},
};

/// The simulated cluster: 8 executors, one partition each. Every other
/// ClusterConfig / SparkDbscanConfig field stays at its library default
/// (host threads, index-build and merge threads, kNN threads, codec,
/// strategies), so a change of default shows up without a benchmark edit.
constexpr u32 kExecutors = 8;
constexpr u32 kSetupReps = 3;
/// Points probed with KdTree::range_query after each traced composition.
constexpr size_t kProbeQueries = 2000;
/// knn_e10k64 output check: ARI of the kNN labels against exact
/// dbscan_sequential. Seeds 1-10 read 0.982-0.988 when this floor was set.
constexpr double kKnnAriFloor = 0.97;
const std::string kDfsPath = "/input/points.txt";

minispark::ClusterConfig cluster_config() {
  minispark::ClusterConfig config;
  config.executors = kExecutors;
  return config;
}

dbscan::SparkDbscanConfig spark_config(const sdb::synth::DatasetSpec& spec,
                                       dbscan::DbscanBackend backend) {
  dbscan::SparkDbscanConfig config;
  config.params = dbscan::DbscanParams{spec.eps, spec.minpts};
  config.backend = backend;
  config.partitions = kExecutors;
  return config;
}

/// Exact dbscan_sequential over the points the pipeline parses from one
/// input, computed once per run outside the measured region and outside
/// setup_s. The kNN backend is checked by ARI alone, so only the exact
/// backend keeps the points, index and core set that check_equivalence
/// needs.
struct Reference {
  dbscan::Clustering clustering;
  std::vector<sdb::PointId> core_points;
  std::unique_ptr<PointSet> points;
  std::unique_ptr<sdb::KdTree> tree;
};

Reference make_reference(PointSet parsed, const dbscan::DbscanParams& params,
                         bool keep_index) {
  Reference ref;
  ref.points = std::make_unique<PointSet>(std::move(parsed));
  ref.tree = std::make_unique<sdb::KdTree>(*ref.points);
  dbscan::SeqResult seq = dbscan::dbscan_sequential(*ref.points, *ref.tree, params);
  ref.clustering = std::move(seq.clustering);
  ref.core_points = std::move(seq.core_points);
  if (!keep_index) {
    ref.tree.reset();
    ref.points.reset();
  }
  return ref;
}

/// One generated dataset in its own MiniDfs, with its reference.
struct Input {
  std::unique_ptr<sdb::dfs::MiniDfs> dfs;
  Reference ref;
};

/// Set up the workload's inputs: each set-up generates one dataset and
/// writes it to a fresh MiniDfs as text. Input 0 is the seed's own dataset;
/// the others come from seeds derived from it. There are at least
/// kSetupReps set-ups (a single input is set up again, and the last copy
/// kept); setup_s is their median.
std::vector<Input> set_up(const Options& options, const PipelineWorkload& workload,
                          const sdb::synth::DatasetSpec& spec,
                          const dbscan::DbscanParams& params, Result& result) {
  std::vector<Input> inputs(workload.inputs);
  std::vector<double> times;
  const u32 reps = std::max<u32>(kSetupReps, workload.inputs);
  for (u32 rep = 0; rep < reps; ++rep) {
    const u32 k = rep % workload.inputs;
    const std::string root = options.work_dir + "/dfs-" + std::to_string(k);
    const u64 seed =
        k == 0 ? options.seed
               : sdb::derive_seed(options.seed, "perfbench.input." + std::to_string(k));
    inputs[k].dfs.reset();
    std::filesystem::remove_all(root);
    Stopwatch sw;
    inputs[k].dfs = std::make_unique<sdb::dfs::MiniDfs>(root);
    const PointSet points = sdb::synth::generate(spec, seed);
    inputs[k].dfs->write(kDfsPath, sdb::synth::to_text(points));
    times.push_back(sw.seconds());
  }
  result.metrics["setup_s"] = median(times);
  for (Input& input : inputs) {
    input.ref = make_reference(sdb::synth::from_text(input.dfs->read(kDfsPath)),
                               params,
                               workload.backend == dbscan::DbscanBackend::kExact);
  }
  return inputs;
}

struct Job {
  double wall_s = 0.0;
  dbscan::SparkDbscanReport report;
};

Job run_job(minispark::SparkContext& context, const sdb::dfs::MiniDfs& dfs,
            const dbscan::SparkDbscanConfig& config) {
  dbscan::SparkDbscan engine(context, config);
  Job job;
  Stopwatch sw;
  job.report = engine.run_from_dfs(dfs, kDfsPath);
  job.wall_s = sw.seconds();
  return job;
}

/// Output check of one job's labels: structural equivalence with the
/// reference for the exact backend (DBSCAN's border ambiguity makes byte
/// equality the wrong test), the ARI floor for the kNN backend. Returns the
/// ARI against the reference.
double check_labels(const Reference& ref,
                    const dbscan::SparkDbscanConfig& config,
                    const dbscan::Clustering& labels, Result& result) {
  const double ari = dbscan::adjusted_rand_index(ref.clustering, labels);
  bool ok = false;
  if (config.backend == dbscan::DbscanBackend::kKnn) {
    ok = ari >= kKnnAriFloor;
    if (!ok) result.note("ARI " + std::to_string(ari) + " below the floor");
  } else {
    const dbscan::EquivalenceReport eq =
        dbscan::check_equivalence(*ref.points, *ref.tree, config.params,
                                  ref.core_points, ref.clustering, labels);
    ok = eq.equivalent;
    if (!ok) result.note("equivalence check failed: " + eq.detail);
  }
  result.count(ok);
  return ari;
}

/// Everything the traced composition broadcasts to its executor tasks.
struct Shared {
  const PointSet* points = nullptr;
  const sdb::KdTree* tree = nullptr;
  const knn::KnnEpsGraph* eps_graph = nullptr;
  const dbscan::Partitioning* partitioning = nullptr;
  dbscan::LocalDbscanConfig local;
};

struct TaskRecord {
  double start_s = 0.0;  ///< task body start, relative to the phase start
  double task_s = 0.0;   ///< whole task body
  double local_s = 0.0;  ///< local_dbscan / local_knn_dbscan call
  double encode_s = 0.0;
  WorkCounters counters;  ///< scoped around the local clustering call
};

using LayerMetrics = std::map<std::string, double>;

struct Composition {
  dbscan::Clustering clustering;
  double wall_s = 0.0;  ///< the pass's root span
};

/// One traced pass of the pipeline through each module's public functions.
/// Returns the composed labels; fills `m` with this pass's layer metrics.
Composition compose(minispark::SparkContext& context,
                    const sdb::dfs::MiniDfs& dfs,
                    const dbscan::SparkDbscanConfig& config, const Job& untraced,
                    Tracer& tracer, u64 run, LayerMetrics& m, bool probe) {
  const u32 partitions = config.partitions;
  ScopedSpan root(tracer, "pipeline", kNoParent, run);

  std::string text;
  {
    ScopedSpan s(tracer, "dfs.read", root.id(), run);
    text = dfs.read(kDfsPath);
    m["dfs.read_s"] = s.end();
    m["dfs.bytes_read"] = static_cast<double>(text.size());
  }
  PointSet points;
  {
    ScopedSpan s(tracer, "synth.parse", root.id(), run);
    points = sdb::synth::from_text(text);
    m["synth.parse_s"] = s.end();
  }

  std::unique_ptr<sdb::KdTree> tree;
  std::unique_ptr<knn::KnnEpsGraph> eps_graph;
  if (config.backend == dbscan::DbscanBackend::kKnn) {
    knn::KnnGraphBuildStats stats;
    knn::KnnGraph graph;
    {
      ScopedSpan s(tracer, "knn.graph_build", root.id(), run);
      graph = knn::build_knn_graph(points, config.knn, &stats);
      m["knn.graph_build_s"] = s.end();
    }
    {
      ScopedSpan s(tracer, "knn.eps_graph", root.id(), run);
      eps_graph = std::make_unique<knn::KnnEpsGraph>(
          knn::KnnEpsGraph::build(graph, config.params));
      m["knn.eps_graph_s"] = s.end();
    }
    m["knn.graph_rounds"] = stats.rounds;
    m["knn.graph_evals"] = static_cast<double>(stats.distance_evals);
    m["knn.ns_per_eval"] =
        stats.distance_evals > 0
            ? m["knn.graph_build_s"] * 1e9 / static_cast<double>(stats.distance_evals)
            : 0.0;
  } else {
    ScopedSpan s(tracer, "spatial.build", root.id(), run);
    sdb::KdTreeOptions tree_options;
    tree_options.build_threads = config.index_build_threads;
    tree = std::make_unique<sdb::KdTree>(points, tree_options);
    m["spatial.build_s"] = s.end();
  }

  dbscan::Partitioning partitioning;
  {
    ScopedSpan s(tracer, "core.partition", root.id(), run);
    partitioning = dbscan::make_partitioning(config.partitioner, points,
                                             partitions, config.seed);
  }

  Shared shared;
  shared.points = &points;
  shared.tree = tree.get();
  shared.eps_graph = eps_graph.get();
  shared.partitioning = &partitioning;
  shared.local.params = config.params;
  shared.local.seed_strategy = config.seed_strategy;
  shared.local.budget = config.budget;
  // The broadcast size is the e2e run's own figure: the formula that prices
  // it is private to SparkDbscan.
  const u64 broadcast_bytes = untraced.report.broadcast_bytes;
  const minispark::Broadcast<Shared> broadcast = [&] {
    ScopedSpan s(tracer, "minispark.broadcast", root.id(), run);
    return context.broadcast(std::move(shared), broadcast_bytes);
  }();

  auto acc = context.accumulator<std::vector<std::string>>(
      {}, [](std::vector<std::string>& into, std::vector<std::string>&& delta) {
        for (auto& blob : delta) into.push_back(std::move(blob));
      });
  acc->begin_job(0);
  auto rdd = context.generate<u32>(
      [](u32 i) { return std::vector<u32>{i}; }, partitions, "partitions");
  std::vector<TaskRecord> tasks(partitions);
  const dbscan::Codec codec = config.codec;
  {
    ScopedSpan phase(tracer, "minispark.executor_phase", root.id(), run);
    const Stopwatch phase_clock;
    context.foreach_partition(
        *rdd,
        [&](u32, std::vector<u32>&& data) {
          const u32 p = data.at(0);
          TaskRecord& rec = tasks[p];
          rec.start_s = phase_clock.seconds();
          ScopedSpan task(tracer, "minispark.task", phase.id(), run);
          const Shared& st = broadcast.value();
          dbscan::LocalClusterResult local;
          {
            ScopedSpan s(tracer, "core.local_dbscan", task.id(), run);
            sdb::ScopedCounters scope(&rec.counters);
            local = st.eps_graph != nullptr
                        ? knn::local_knn_dbscan(
                              *st.eps_graph, *st.partitioning, p,
                              knn::LocalKnnDbscanConfig{st.local.seed_strategy})
                        : dbscan::local_dbscan(*st.points, *st.tree,
                                               *st.partitioning, p, st.local);
            rec.local_s = s.end();
          }
          std::string blob;
          {
            ScopedSpan s(tracer, "core.codec.encode", task.id(), run);
            blob = dbscan::encode(local, codec);
            rec.encode_s = s.end();
          }
          const u64 bytes = blob.size();
          std::vector<std::string> delta;
          delta.push_back(std::move(blob));
          acc->add_once(p, std::move(delta), bytes);
          rec.task_s = task.end();
        },
        "dbscan-local-clustering");
    m["minispark.executor_phase_s"] = phase.end();
  }

  std::vector<dbscan::LocalClusterResult> locals;
  {
    ScopedSpan s(tracer, "core.codec.decode", root.id(), run);
    for (const std::string& blob : acc->value()) {
      locals.push_back(dbscan::decode(blob, codec));
    }
    m["core.codec.decode_s"] = s.end();
  }
  dbscan::MergeResult merged;
  {
    ScopedSpan s(tracer, "core.merge", root.id(), run);
    dbscan::MergeOptions merge_options;
    merge_options.strategy = config.merge_strategy;
    merge_options.min_partial_cluster_size = config.min_partial_cluster_size;
    merged = dbscan::merge_partial_clusters(locals, points.size(), merge_options);
    m["core.merge_s"] = s.end();
  }
  acc->commit_job();
  Composition out;
  out.wall_s = root.end();
  out.clustering = std::move(merged.clustering);

  // --- executor-task aggregates ---
  const double host_threads = std::max<u32>(1, context.config().host_threads);
  double task_sum = 0.0;
  double local_sum = 0.0;
  double local_max = 0.0;
  double encode_sum = 0.0;
  double wait_max = 0.0;
  WorkCounters work;
  for (const TaskRecord& rec : tasks) {
    task_sum += rec.task_s;
    local_sum += rec.local_s;
    local_max = std::max(local_max, rec.local_s);
    encode_sum += rec.encode_s;
    wait_max = std::max(wait_max, rec.start_s);
    work += rec.counters;
  }
  const double local_mean = local_sum / partitions;
  m["core.local_dbscan.task_s.max"] = local_max;
  m["core.local_dbscan.task_s.mean"] = local_mean;
  m["core.local_dbscan.task_s.sum"] = local_sum;
  m["core.local_dbscan.imbalance"] = local_mean > 0.0 ? local_max / local_mean : 0.0;
  m["core.local_dbscan.distance_evals"] = static_cast<double>(work.distance_evals);
  m["core.local_dbscan.tree_nodes"] = static_cast<double>(work.tree_nodes);
  m["core.local_dbscan.hash_ops"] = static_cast<double>(work.hash_ops);
  m["core.local_dbscan.queue_ops"] = static_cast<double>(work.queue_ops);
  m["core.local_dbscan.frontier_peak"] = static_cast<double>(work.frontier_peak);
  m["core.local_dbscan.evals_per_point"] =
      work.points_processed > 0 ? static_cast<double>(work.distance_evals) /
                                      static_cast<double>(work.points_processed)
                                : 0.0;
  if (eps_graph != nullptr) m["knn.local_bfs_s"] = local_sum;
  m["minispark.task_wait_s.max"] = wait_max;
  m["minispark.parallel_eff"] =
      task_sum / (m["minispark.executor_phase_s"] * host_threads);
  m["minispark.broadcast_bytes"] = static_cast<double>(broadcast_bytes);
  m["minispark.accumulator_bytes"] = static_cast<double>(acc->total_bytes());
  m["core.codec.encode_s"] = encode_sum;
  m["core.merge.seeds_examined"] = static_cast<double>(merged.stats.seeds_examined);
  m["core.merge.partial_clusters"] = static_cast<double>(merged.stats.partial_clusters);
  m["core.merge.merges"] = static_cast<double>(merged.stats.merges);
  m["core.merge.ops"] = static_cast<double>(merged.counters.merge_ops);

  // --- spatial probe: range queries at a fixed sample of the pipeline's
  // own points (every n/kProbeQueries-th point), outside the pipeline span.
  if (probe && tree != nullptr) {
    const size_t n = points.size();
    const size_t stride = std::max<size_t>(1, n / kProbeQueries);
    WorkCounters probe_work;
    u64 hits = 0;
    u64 queries = 0;
    std::vector<sdb::PointId> neighbors;
    ScopedSpan s(tracer, "spatial.probe", kNoParent, run);
    {
      sdb::ScopedCounters scope(&probe_work);
      for (size_t i = 0; i < n && queries < kProbeQueries; i += stride) {
        neighbors.clear();
        tree->range_query(points[static_cast<sdb::PointId>(i)],
                          config.params.eps, neighbors);
        hits += neighbors.size();
        ++queries;
      }
    }
    const double probe_s = s.end();
    m["spatial.query_us"] = probe_s * 1e6 / static_cast<double>(queries);
    m["spatial.evals_per_query"] = static_cast<double>(probe_work.distance_evals) /
                                   static_cast<double>(queries);
    m["spatial.hit_ratio"] =
        probe_work.distance_evals > 0
            ? static_cast<double>(hits) / static_cast<double>(probe_work.distance_evals)
            : 0.0;
  }
  return out;
}

const PipelineWorkload& find_workload(const std::string& name) {
  for (const PipelineWorkload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown pipeline workload " + name);
}

}  // namespace

void run_pipeline(const Options& options, Result& result) {
  const PipelineWorkload& workload = find_workload(options.workload);
  const auto spec = sdb::synth::find_preset(workload.preset);
  if (!spec) throw std::invalid_argument("unknown preset");
  const dbscan::SparkDbscanConfig config = spark_config(*spec, workload.backend);
  result.note("host_threads = " +
              std::to_string(std::max<u32>(1, cluster_config().host_threads)) +
              " (minispark ClusterConfig)");
  const std::vector<Input> inputs =
      set_up(options, workload, *spec, config.params, result);

  // One context per kind of pass, reused by every job of the run, as a
  // Spark application reuses its context across jobs. Job i reads input
  // i mod inputs. The measured region is the summed time of the timed
  // calls; each job is checked and dropped right after it, outside its
  // timing.
  minispark::SparkContext context(cluster_config());
  std::vector<double> walls;
  std::vector<double> aris;
  double measured_s = 0.0;
  if (!options.trace) {
    if (!reset_peak_rss()) result.note("peak RSS window could not be reset");
    // Per input: the work of its job, which depends only on the data (it
    // tells a slower input from a slower host), and its job walls.
    std::vector<std::string> lines(inputs.size());
    std::vector<std::vector<double>> input_walls(inputs.size());
    while (walls.empty() || measured_s < options.seconds) {
      const size_t k = walls.size() % inputs.size();
      const Job job = run_job(context, *inputs[k].dfs, config);
      measured_s += job.wall_s;
      walls.push_back(job.wall_s * 1e3);
      input_walls[k].push_back(walls.back());
      aris.push_back(check_labels(inputs[k].ref, config, job.report.clustering, result));
      char buf[192];
      if (lines[k].empty()) {
        std::snprintf(buf, sizeof(buf),
                      "input %zu: sim_total_s %.6g, knn_graph_rounds %llu, "
                      "knn_graph_evals %llu; run_from_dfs walls (ms):",
                      k, job.report.sim_total_s(),
                      static_cast<unsigned long long>(job.report.knn_graph_rounds),
                      static_cast<unsigned long long>(job.report.knn_graph_evals));
        lines[k] = buf;
      }
      std::snprintf(buf, sizeof(buf), " %.3f", walls.back());
      lines[k] += buf;
    }
    result.metrics["peak_rss_mb"] = peak_rss_mb();
    result.metrics["ari"] = median(aris);
    for (const std::string& line : lines) {
      if (!line.empty()) result.note(line);
    }
    // latency_ms: each input's median job wall, averaged over the inputs
    // that ran. The mean, not the median, across inputs: their work differs
    // in steps (whole NN-descent rounds), and a median across them would
    // jump from one step to the next with the mix of inputs a seed draws.
    double sum = 0.0;
    size_t used = 0;
    for (const std::vector<double>& w : input_walls) {
      if (w.empty()) continue;
      sum += median(w);
      ++used;
    }
    result.metrics["latency_ms"] = sum / static_cast<double>(used);
    result.note("run_from_dfs jobs: " + std::to_string(walls.size()) + " over " +
                std::to_string(used) + " inputs");
    return;
  }

  // --- traced per-layer run: alternate an untraced job with a traced
  // composition of the same work until the measured region is over.
  Tracer tracer;
  minispark::SparkContext traced_context(cluster_config());
  std::vector<LayerMetrics> passes;
  std::vector<double> traced_walls;
  u64 run = 0;
  while (walls.empty() || measured_s < options.seconds) {
    const Input& input = inputs[walls.size() % inputs.size()];
    const Job job = run_job(context, *input.dfs, config);
    walls.push_back(job.wall_s);
    LayerMetrics m;
    const Composition composed = compose(traced_context, *input.dfs, config, job,
                                         tracer, run++, m, passes.empty());
    traced_walls.push_back(composed.wall_s);
    measured_s += job.wall_s + composed.wall_s;
    const dbscan::Clustering& labels = job.report.clustering;
    const bool same = composed.clustering.labels == labels.labels &&
                      composed.clustering.num_clusters == labels.num_clusters;
    if (!same) result.note("traced composition labels differ from run_from_dfs");
    result.count(same);
    check_labels(input.ref, config, job.report.clustering, result);
    m["sim.total_s"] = job.report.sim_total_s();
    m["sim.executor_s"] = job.report.sim_executor_s;
    m["sim.driver_s"] = job.report.sim_driver_s();
    passes.push_back(std::move(m));
  }

  // Per-layer figures are medians over the traced passes (the spatial
  // probe runs once, on the first pass).
  std::map<std::string, std::vector<double>> series;
  for (const LayerMetrics& m : passes) {
    for (const auto& [name, value] : m) series[name].push_back(value);
  }
  for (auto& [name, values] : series) {
    result.metrics[name] = median(values);
  }
  result.metrics["trace.overhead_frac"] =
      median(traced_walls) / median(walls) - 1.0;
  const std::map<std::string, Tracer::Totals> totals = tracer.totals();
  for (const auto& [name, t] : totals) result.note(span_line(name, t));
  const auto n_passes = static_cast<double>(passes.size());
  result.metrics["trace.pipeline.self_s"] = totals.at("pipeline").self_s / n_passes;
  result.metrics["minispark.executor_phase.self_s"] =
      totals.at("minispark.executor_phase").self_s / n_passes;
  result.metrics["minispark.task.self_s"] =
      totals.at("minispark.task").self_s / n_passes;
  if (!options.trace_out.empty()) tracer.write(options.trace_out);
}

}  // namespace perfbench
