#include "core/spark_dbscan.hpp"

#include "core/job_identity.hpp"
#include "knn/knn_backend.hpp"
#include "minispark/job_checkpoint.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/io.hpp"
#include "util/fnv.hpp"
#include "util/stopwatch.hpp"

namespace sdb::dbscan {

using minispark::CostModel;

const char* backend_name(DbscanBackend backend) {
  switch (backend) {
    case DbscanBackend::kExact: return "exact";
    case DbscanBackend::kKnn: return "knn";
  }
  return "?";
}

namespace {

/// Everything the driver broadcasts: the kd-tree over all points, the
/// parameters, and the partition map (paper Section IV.B).
struct BroadcastState {
  const PointSet* points = nullptr;
  std::unique_ptr<KdTree> tree;
  /// KNN backend: the in-eps graph + global core mask replaces the kd-tree
  /// as the neighborhood machinery (non-null iff backend == kKnn).
  std::unique_ptr<knn::KnnEpsGraph> eps_graph;
  Partitioning partitioning;
  LocalDbscanConfig local_config;
};

}  // namespace

SparkDbscanReport SparkDbscan::run(const PointSet& points) {
  // Δ estimate without a physical read: charge the dataset's byte volume at
  // disk bandwidth plus per-point transform cost.
  WorkCounters read_wc;
  read_wc.bytes_read = points.byte_size();
  read_wc.points_processed = points.size();
  return run_impl(points, CostModel::compute_seconds(read_wc), 0.0);
}

SparkDbscanReport SparkDbscan::run_from_dfs(const dfs::MiniDfs& dfs,
                                            const std::string& path) {
  // Lines 1-2 of Algorithm 2: textFile -> parse into Point RDDs, collected
  // into the driver's PointSet (the driver also needs the full set to build
  // the kd-tree it broadcasts). Both steps run on the host threads, as
  // Spark runs one task per block: the blocks are read into one string, and
  // the parse writes straight into the set's one row buffer.
  const Stopwatch read_wall;
  WorkCounters read_wc;
  PointSet points;
  {
    ScopedCounters scope(&read_wc);
    const std::string text = dfs.read(path, ctx_.host_threads());
    points = synth::from_text(text, ctx_.host_threads());
    counters::points_processed(points.size());
  }
  return run_impl(points, CostModel::compute_seconds(read_wc),
                  read_wall.seconds());
}

SparkDbscanReport SparkDbscan::run_impl(const PointSet& points,
                                        double sim_read_s,
                                        double wall_read_s) {
  const Stopwatch wall;
  SparkDbscanReport report;
  report.sim_read_s = sim_read_s;
  report.wall_read_s = wall_read_s;

  const u32 partitions = config_.partitions > 0
                             ? config_.partitions
                             : ctx_.config().total_cores();

  // --- Durability: open the job checkpoint and recover committed results.
  // Partitions with a committed record are never re-executed; their blobs
  // rejoin the merge below, and the uid-canonical merge order makes the
  // resumed labeling byte-identical to an uninterrupted run.
  std::unique_ptr<minispark::JobCheckpoint> ckpt;
  std::vector<u32> recovered_parts;
  if (!config_.checkpoint_dir.empty()) {
    u64 backend_salt = 0;
    if (config_.backend == DbscanBackend::kKnn) {
      backend_salt = fnv1a("knn", 3);
      backend_salt = fnv1a_value(backend_salt, config_.knn.k);
      backend_salt = fnv1a_value(backend_salt, config_.knn.build);
      backend_salt = fnv1a_value(backend_salt, config_.knn.max_rounds);
      backend_salt = fnv1a_value(backend_salt, knn::kDescentSample);
      backend_salt = fnv1a_value(backend_salt, knn::kDescentTerminationFrac);
      backend_salt = fnv1a_value(backend_salt, config_.knn.seed);
      // The rows a descent starts from shape the graph it converges to: a
      // checkpoint written on one start's graph must not resume.
      if (config_.knn.build == knn::KnnGraphConfig::Build::kDescent) {
        backend_salt = fnv1a_value(backend_salt, knn::kDescentStartVersion);
      }
    } else if (!config_.budget.exact()) {
      // A budget drops neighbors, and which ones depends on the kd-tree's
      // traversal order: fold the budget. Exact queries report every hit,
      // so exact fingerprints fold nothing.
      backend_salt = fnv1a("budget", 6);
      backend_salt = fnv1a_value(backend_salt, config_.budget.max_neighbors);
      backend_salt = fnv1a_value(backend_salt, config_.budget.max_nodes);
      // Four zero bytes where an index choice was once folded (the
      // kd-tree's 0), so budgeted fingerprints, and the checkpoints they
      // name, keep their values.
      backend_salt = fnv1a_value(backend_salt, i32{0});
      // A node cap counts the kd-tree's wide nodes, so the hits it keeps
      // depend on their fan-out: a checkpoint written when the cap counted
      // binary nodes must not resume.
      if (config_.budget.max_nodes != 0) {
        backend_salt = fnv1a_value(backend_salt, KdTree::kFanout);
      }
    }
    report.job_fingerprint = job_fingerprint(
        "spark", dataset_digest(points), config_.params, config_.partitioner,
        partitions, config_.seed, config_.seed_strategy,
        config_.merge_strategy, config_.codec, backend_salt);
    ckpt = std::make_unique<minispark::JobCheckpoint>(
        config_.checkpoint_dir, report.job_fingerprint, config_.resume);
    recovered_parts = ckpt->completed();
  }
  std::vector<u32> pending;
  for (u32 p = 0; p < partitions; ++p) {
    if (ckpt != nullptr && ckpt->has(p)) continue;
    pending.push_back(p);
  }
  report.resumed_partitions = recovered_parts.size();
  report.executed_partitions = pending.size();

  // --- Driver: build the neighborhood machinery (priced from its measured
  // work): the kd-tree for the exact backend, the kNN graph + in-eps graph
  // for the KNN backend. ---
  auto state = std::make_shared<BroadcastState>();
  state->points = &points;
  const Stopwatch index_wall;
  if (config_.backend == DbscanBackend::kKnn) {
    WorkCounters graph_wc;
    ScopedCounters scope(&graph_wc);
    knn::KnnGraphBuildStats graph_stats;
    const knn::KnnGraph graph =
        knn::build_knn_graph(points, config_.knn, &graph_stats);
    state->eps_graph = std::make_unique<knn::KnnEpsGraph>(
        knn::KnnEpsGraph::build(graph, config_.params));
    report.knn_graph_rounds = graph_stats.rounds;
    report.knn_graph_evals = graph_stats.distance_evals;
    report.knn_eps_edges = state->eps_graph->num_edges();
    report.knn_core_points = state->eps_graph->num_core();
    report.sim_tree_s = CostModel::compute_seconds(graph_wc);
  } else {
    WorkCounters tree_wc;
    ScopedCounters scope(&tree_wc);
    state->tree = std::make_unique<KdTree>(
        points, KdTreeOptions{.build_threads = config_.index_build_threads});
    // Tree build work is dominated by nth_element coordinate comparisons;
    // they are not individually counted, so price them explicitly:
    // ~n log2(n) comparisons at distance-eval granularity per dim pass.
    double nlogn = static_cast<double>(points.size());
    double log2n = 1.0;
    for (size_t x = points.size(); x > 1; x >>= 1) log2n += 1.0;
    tree_wc.distance_evals += static_cast<u64>(nlogn * log2n);
    report.sim_tree_s = CostModel::compute_seconds(tree_wc);
  }
  report.wall_index_s = index_wall.seconds();
  state->partitioning = make_partitioning(config_.partitioner, points,
                                          partitions, config_.seed);
  state->local_config.params = config_.params;
  state->local_config.seed_strategy = config_.seed_strategy;
  state->local_config.budget = config_.budget;

  // --- Broadcast: neighborhood machinery + partition map (Section IV.B).
  // The KNN backend ships the eps-graph + core mask (the kNN graph itself
  // stays on the driver; executors only ever need the derived view). ---
  const u64 broadcast_bytes =
      (state->tree != nullptr ? state->tree->byte_size()
                              : state->eps_graph->byte_size()) +
      state->partitioning.byte_size() + 64;
  auto broadcast = ctx_.broadcast(std::move(state), broadcast_bytes);
  report.broadcast_bytes = broadcast_bytes;

  // --- Executors: foreachPartition, results back via accumulator. ---
  // Each executor serializes its LocalClusterResult with the configured
  // codec; the accumulator carries the wire bytes (what a real cluster
  // ships) and the driver decodes after the barrier.
  auto acc = ctx_.accumulator<std::vector<std::string>>(
      {}, [](std::vector<std::string>& into, std::vector<std::string>&& delta) {
        for (auto& blob : delta) into.push_back(std::move(blob));
      });

  // The RDD carries partition indices only; the data plane is the broadcast
  // (the paper pushes Point RDDs, but executors never exchange them — the
  // kd-tree broadcast already holds every coordinate, so shipping the RDD
  // contents is pure overhead we charge to the read phase). On a resumed
  // run the RDD spans only the partitions the checkpoint is missing.
  const std::vector<u32> work = pending;
  const Codec codec = config_.codec;
  acc->begin_job(report.job_fingerprint);
  minispark::JobCheckpoint* ckpt_ptr = ckpt.get();
  if (!pending.empty()) {
    const Stopwatch executor_wall;
    auto rdd = ctx_.generate<u32>(
        [&work](u32 i) { return std::vector<u32>{work[i]}; },
        static_cast<u32>(work.size()), "partitions");
    ctx_.foreach_partition(
        *rdd,
        [&broadcast, &acc, codec, ckpt_ptr](u32, std::vector<u32>&& data) {
          const u32 p = data.at(0);
          const BroadcastState& st = *broadcast.value();
          LocalClusterResult local =
              st.eps_graph != nullptr
                  ? knn::local_knn_dbscan(
                        *st.eps_graph, st.partitioning,
                        static_cast<PartitionId>(p),
                        knn::LocalKnnDbscanConfig{
                            st.local_config.seed_strategy})
                  : local_dbscan(*st.points, *st.tree, st.partitioning,
                                 static_cast<PartitionId>(p), st.local_config);
          std::string blob = encode(local, codec);
          const u64 bytes = blob.size();
          // The blob moves into the accumulator; only a checkpoint record,
          // written after the add, needs a copy of its own.
          std::vector<std::string> delta;
          if (ckpt_ptr != nullptr) {
            delta.push_back(blob);
          } else {
            delta.push_back(std::move(blob));
          }
          // Algorithm 2 lines 26-28. Tagged by partition so re-executed and
          // speculatively-duplicated tasks merge exactly once — the invariant
          // that keeps the chaos suite's faulted runs equal to dbscan_seq.
          acc->add_once(p, std::move(delta), bytes);
          // Persist only after the accumulator accepted the result: a record
          // on disk always corresponds to an applied update.
          if (ckpt_ptr != nullptr) ckpt_ptr->save(p, blob);
        },
        "dbscan-local-clustering");

    const minispark::JobMetrics& job = ctx_.last_job();
    report.sim_executor_s = job.sim_executor_makespan_s;
    report.sim_executor_total_s = job.sim_executor_total_s;
    report.wall_executor_s = executor_wall.seconds();
    for (const minispark::TaskMetrics& task : job.tasks) {
      report.wall_task_s.push_back(task.wall_s);
    }
  }
  report.sim_broadcast_s =
      CostModel::broadcast_seconds(broadcast_bytes, ctx_.config().executors);
  report.accumulator_bytes = acc->total_bytes();
  report.sim_collect_s = CostModel::transfer_seconds(acc->total_bytes());
  if (ckpt != nullptr) report.checkpoint_saves = ckpt->saves();

  // --- Driver: decode the wire blobs, then merge (lines 30-31). ---
  // Recovered blobs and freshly computed ones decode through the same path;
  // merge_partial_clusters sorts partial clusters into uid-canonical order,
  // so the mixed arrival order cannot perturb the labeling.
  const Stopwatch merge_wall;
  std::vector<LocalClusterResult> locals;
  {
    WorkCounters decode_wc;
    ScopedCounters scope(&decode_wc);
    locals.reserve(acc->value().size() + recovered_parts.size());
    for (const u32 p : recovered_parts) {
      locals.push_back(decode(ckpt->load(p), codec));
    }
    for (const std::string& blob : acc->value()) {
      locals.push_back(decode(blob, codec));
    }
    report.sim_collect_s += CostModel::compute_seconds(decode_wc);
  }
  for (const auto& local : locals) {
    report.partial_clusters += local.clusters.size();
  }
  MergeOptions merge_options;
  merge_options.strategy = config_.merge_strategy;
  merge_options.min_partial_cluster_size = config_.min_partial_cluster_size;
  MergeResult merged =
      merge_partial_clusters(locals, points.size(), merge_options);
  report.sim_merge_s = CostModel::compute_seconds(merged.counters);
  report.merge_stats = merged.stats;
  report.clustering = std::move(merged.clustering);
  report.wall_merge_s = merge_wall.seconds();

  // Job consumed: release the accumulator dedup tags and the checkpoint
  // records (the merged result supersedes them).
  acc->commit_job();
  if (ckpt != nullptr) ckpt->commit();

  report.wall_s = wall_read_s + wall.seconds();
  return report;
}

}  // namespace sdb::dbscan
