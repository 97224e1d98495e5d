// sdbscan — command-line DBSCAN over a points file.
//
// The downstream-user entry point: feed it a whitespace-separated text file
// (one point per line, any dimensionality), get one cluster label per line
// on stdout (-1 = noise) plus a summary on stderr.
//
//   ./sdbscan_cli data.txt --eps 0.5 --minpts 5 --partitions 8
//   ./sdbscan_cli data.txt --estimate_eps            # 4-dist heuristic
//   ./sdbscan_cli data.txt --engine seq|spark|mr
//   ./sdbscan_cli data.txt --host-threads 1          # parse + spark tasks on 1 core
//   ./sdbscan_cli --demo                             # no file needed
//   ./sdbscan_cli --preset e10k64 --backend knn      # d=64 KNN-DBSCAN demo
//   ./sdbscan_cli data.txt --serve                   # then query via stdin
//
// --serve keeps the process alive after clustering and answers queries from
// stdin against a live serving model (src/serve/): `classify x y ...`,
// `label <id>`, `insert x y ...`, `remove <id>`, `summary`, `save <path>`,
// `quit`. Inserts/removes update the clustering incrementally and republish
// snapshots.
//
// With --shards/--replicas above 1, --serve runs the REPLICATED tier
// (src/replica/) instead: points route to consistent-hash shards, each
// shard is a primary + WAL-shipped followers, and the extra `kill <shard>`
// command SIGKILLs a shard's primary to demonstrate failover live —
// reads keep serving from the committed model while a follower is
// promoted. Commands: `classify`, `insert`, `summary`, `kill <shard>`,
// `quit`.
//
// --stream runs the STREAMING INGEST demo instead (src/stream/): the
// clustered points bootstrap a live registry behind an IngestPipeline, then
// `--stream-writers` unpaced producers firehose drifting-hotspot writes at
// it for `--stream-seconds` while classify queries keep answering from the
// last published epoch. Every degradation-ladder transition prints as it
// happens (healthy -> pressured -> degraded -> shedding and back down), and
// the run ends with a drain + final metrics — a terminal-sized tour of the
// overload ladder bench_streaming measures.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "core/dbscan_seq.hpp"
#include "core/mr_dbscan.hpp"
#include "core/quality.hpp"
#include "core/spark_dbscan.hpp"
#include "geom/distance.hpp"
#include "knn/knn_backend.hpp"
#include "replica/sharded_cluster.hpp"
#include "serve/query_engine.hpp"
#include "spatial/kd_tree.hpp"
#include "stream/ingest_pipeline.hpp"
#include "synth/generators.hpp"
#include "synth/io.hpp"
#include "synth/presets.hpp"
#include "util/flags.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

using namespace sdb;

namespace {

double estimate_eps(const PointSet& points, size_t k) {
  const KdTree tree(points);
  std::vector<double> kdist;
  kdist.reserve(points.size());
  for (PointId i = 0; i < static_cast<PointId>(points.size()); ++i) {
    const auto nn = tree.knn(points[i], k + 1);
    kdist.push_back(sdb::distance(points[i], points[nn.back()]));
  }
  std::sort(kdist.begin(), kdist.end());
  return kdist[kdist.size() * 9 / 10];
}

/// The whole file at `path`, read once into one string (sized up front
/// when the file has a size; a pipe's grows), or nullopt when it cannot be
/// opened.
std::optional<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::string text;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (!ec) text.reserve(size);
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  return text;
}

/// --serve loop: build a live registry from the clustered points, answer
/// line-oriented queries from stdin until EOF/quit. Returns exit status.
int serve_loop(const PointSet& points, const dbscan::DbscanParams& params,
               double core_sample, const std::string& wal_dir) {
  using namespace sdb::serve;
  ModelRegistry::Config reg_cfg;
  reg_cfg.params = params;
  // Interactive sessions expect an insert/remove to be visible in the very
  // next query, so republish after every mutation (a real deployment would
  // raise this to amortize snapshot rebuilds — see bench_serve_load).
  reg_cfg.publish_every = 1;
  reg_cfg.model_options.core_sample_fraction = core_sample;
  reg_cfg.wal_dir = wal_dir;  // empty = no durability
  ModelRegistry registry(reg_cfg, points.dim());
  if (!wal_dir.empty() && registry.wal_replayed() > 0) {
    // The replayed log already contains the bootstrap inserts from the
    // previous incarnation — bootstrapping again would double every point.
    std::fprintf(stderr,
                 "serve: recovered epoch %llu from WAL (%llu mutations "
                 "replayed, %llu uncommitted discarded); skipping bootstrap\n",
                 static_cast<unsigned long long>(registry.epoch()),
                 static_cast<unsigned long long>(registry.wal_replayed()),
                 static_cast<unsigned long long>(registry.wal_discarded()));
  } else {
    std::fprintf(stderr, "serve: bootstrapping model over %zu points...\n",
                 points.size());
    registry.bootstrap(points);
  }
  QueryEngine::Config eng_cfg;
  eng_cfg.threads = 2;
  QueryEngine engine(registry, eng_cfg);
  {
    const auto s = registry.model()->summary();
    std::fprintf(stderr,
                 "serve: ready — %llu clusters, %llu core points, epoch %llu. "
                 "commands: classify|insert <coords...>, label|remove <id>, "
                 "summary, save <path>, quit\n",
                 static_cast<unsigned long long>(s.num_clusters),
                 static_cast<unsigned long long>(s.core_points),
                 static_cast<unsigned long long>(s.epoch));
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "summary") {
      const auto s = registry.model()->summary();
      std::printf("points=%llu clusters=%llu cores=%llu noise=%llu epoch=%llu\n",
                  static_cast<unsigned long long>(s.total_points),
                  static_cast<unsigned long long>(s.num_clusters),
                  static_cast<unsigned long long>(s.core_points),
                  static_cast<unsigned long long>(s.noise_points),
                  static_cast<unsigned long long>(s.epoch));
      continue;
    }
    if (cmd == "save") {
      std::string path;
      if (!(in >> path)) {
        std::printf("err save needs a path\n");
        continue;
      }
      registry.model()->save_file(path);
      std::printf("ok saved %s\n", path.c_str());
      continue;
    }
    Request req;
    if (cmd == "classify" || cmd == "insert") {
      req.type = cmd == "classify" ? RequestType::kClassify
                                   : RequestType::kInsert;
      double v = 0;
      while (in >> v) req.point.push_back(v);
    } else if (cmd == "label" || cmd == "remove") {
      req.type = cmd == "label" ? RequestType::kLookup : RequestType::kRemove;
      long long id = -1;
      if (!(in >> id)) {
        std::printf("err %s needs an id\n", cmd.c_str());
        continue;
      }
      req.id = static_cast<PointId>(id);
    } else {
      std::printf("err unknown command '%s'\n", cmd.c_str());
      continue;
    }
    const Reply reply = engine.execute(req);
    switch (reply.status) {
      case ReplyStatus::kOk:
        if (req.type == RequestType::kInsert) {
          std::printf("ok id=%lld epoch=%llu\n",
                      static_cast<long long>(reply.id),
                      static_cast<unsigned long long>(reply.epoch));
        } else if (req.type == RequestType::kRemove) {
          std::printf("ok removed=%lld\n", static_cast<long long>(reply.id));
        } else {
          std::printf("label=%lld epoch=%llu%s\n",
                      static_cast<long long>(reply.label),
                      static_cast<unsigned long long>(reply.epoch),
                      reply.cache_hit ? " (cached)" : "");
        }
        break;
      case ReplyStatus::kNotFound:
        std::printf("err not found\n");
        break;
      case ReplyStatus::kInvalid:
        std::printf("err invalid request (dimension or id)\n");
        break;
      case ReplyStatus::kOverloaded:
        std::printf("err overloaded\n");
        break;
      case ReplyStatus::kDegraded:
        std::printf("err degraded (registry writer stalled; reads still serve)\n");
        break;
    }
  }
  const auto m = engine.metrics();
  std::fprintf(stderr, "serve: done — %llu classify lookups served from cache\n",
               static_cast<unsigned long long>(m.cache_hits));
  return 0;
}

/// --serve with --shards/--replicas > 1: the replicated tier. The process
/// hosts every node (the subsystem is single-process by design — see
/// src/replica/replica_set.hpp); replication rounds and failure-detector
/// beats are driven between commands, so behavior is deterministic and
/// `kill` + the next few commands walk through a real failover.
int serve_topology_loop(const PointSet& points,
                        const dbscan::DbscanParams& params, size_t shards,
                        size_t replicas, const std::string& wal_dir) {
  using namespace sdb::replica;
  ShardedCluster::Options opts;
  opts.shards = shards;
  opts.replica.replicas = replicas;
  opts.replica.dir = wal_dir;  // empty = in-memory node logs
  opts.replica.registry.params = params;
  // Interactive sessions expect an insert to be visible in the very next
  // query, so publish on every mutation.
  opts.replica.registry.publish_every = 1;
  ShardedCluster cluster(opts, points.dim());
  std::fprintf(stderr,
               "serve: bootstrapping %zu points across %zu shards x %zu "
               "replicas...\n",
               points.size(), shards, replicas);
  cluster.bootstrap(points);
  const auto drive = [&] {
    // Beat the failure detector until every shard has a live primary again
    // (promotion needs heartbeat_timeout silent beats; bounded in case a
    // shard has no replicas left to promote)...
    for (int beat = 0; beat < 100; ++beat) {
      cluster.tick_all();
      cluster.pump_all();
      bool all_live = true;
      for (size_t s = 0; s < cluster.shards(); ++s) {
        all_live &= cluster.shard(s).has_live_primary();
      }
      if (all_live) break;
    }
    // ...then replicate until every live shard's commit watermark catches
    // its primary, so the next query sees this command's effect.
    for (int round = 0; round < 100'000; ++round) {
      cluster.pump_all();
      bool settled = true;
      for (size_t s = 0; s < cluster.shards(); ++s) {
        const ReplicaSet& rs = cluster.shard(s);
        if (!rs.has_live_primary()) continue;  // nobody left to promote
        const auto primary = rs.node_registry(rs.primary_index());
        settled &= rs.committed_epoch() >= primary->epoch();
      }
      if (settled) return;
    }
  };
  drive();
  for (size_t s = 0; s < cluster.shards(); ++s) {
    std::fprintf(stderr,
                 "serve: shard %zu ready — committed epoch %llu, primary "
                 "node %zu\n",
                 s,
                 static_cast<unsigned long long>(
                     cluster.shard(s).committed_epoch()),
                 cluster.shard(s).primary_index());
  }
  std::fprintf(stderr,
               "serve: commands: classify|insert <coords...>, summary, "
               "kill <shard>, quit\n");

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "summary") {
      for (size_t s = 0; s < cluster.shards(); ++s) {
        const ReplicaSet& rs = cluster.shard(s);
        std::printf("shard=%zu committed=%llu primary=%zu term=%llu "
                    "failovers=%llu stale_redirects=%llu\n",
                    s,
                    static_cast<unsigned long long>(rs.committed_epoch()),
                    rs.primary_index(),
                    static_cast<unsigned long long>(rs.term()),
                    static_cast<unsigned long long>(rs.failovers()),
                    static_cast<unsigned long long>(rs.stale_redirects()));
      }
      continue;
    }
    if (cmd == "kill") {
      size_t s = 0;
      if (!(in >> s) || s >= cluster.shards()) {
        std::printf("err kill needs a shard in [0, %zu)\n", cluster.shards());
        continue;
      }
      cluster.shard(s).kill_primary();
      std::printf("ok killed shard %zu primary (failover pending)\n", s);
      drive();
      continue;
    }
    if (cmd == "classify" || cmd == "insert") {
      std::vector<double> coords;
      double v = 0;
      while (in >> v) coords.push_back(v);
      if (static_cast<int>(coords.size()) != points.dim()) {
        std::printf("err expected %d coordinates\n", points.dim());
        continue;
      }
      if (cmd == "classify") {
        const auto r = cluster.classify(coords, 0);
        std::printf("label=%lld shard=%zu epoch=%llu%s\n",
                    static_cast<long long>(r.cluster),
                    cluster.shard_for(coords),
                    static_cast<unsigned long long>(r.epoch),
                    r.redirected ? " (redirected)" : "");
      } else {
        const auto r = cluster.insert(coords);
        if (r.has_value()) {
          std::printf("ok shard=%zu id=%lld\n", r->shard,
                      static_cast<long long>(r->id));
        } else {
          std::printf("err shard %zu has no live primary (failover in "
                      "progress)\n",
                      cluster.shard_for(coords));
        }
        drive();
      }
      continue;
    }
    std::printf("err unknown command '%s'\n", cmd.c_str());
  }
  return 0;
}

/// --stream: self-driving streaming-ingest demo. Bootstraps a registry from
/// the clustered points, then firehoses drifting-hotspot writes through an
/// IngestPipeline while printing every ladder transition live; classify
/// queries sample the published snapshot throughout. Exit 0 iff the ladder
/// recovered to kHealthy after the drain.
int stream_demo(const PointSet& points, const dbscan::DbscanParams& params,
                size_t writers, double seconds) {
  using namespace sdb::serve;
  using namespace sdb::stream;
  ModelRegistry::Config reg_cfg;
  reg_cfg.params = params;
  reg_cfg.publish_every = 0;  // the pipeline owns the epoch cadence
  ModelRegistry registry(reg_cfg, points.dim());
  std::fprintf(stderr, "stream: bootstrapping model over %zu points...\n",
               points.size());
  registry.bootstrap(points);

  // Print transitions as they happen (fired with the pipeline lock held —
  // stderr only, no calls back into the pipeline).
  IngestPipeline::Config cfg;
  cfg.queue_capacity = 1024;
  cfg.lag_capacity = 1024.0;
  cfg.batch_max = 64;
  cfg.on_transition = [](const LadderTransition& t) {
    std::fprintf(stderr,
                 "stream: ladder %s -> %s (queue %zu, lag %llu, "
                 "pressure %.2f)\n",
                 rung_name(t.from), rung_name(t.to), t.queue_depth,
                 static_cast<unsigned long long>(t.lag), t.pressure);
  };
  IngestPipeline pipeline(registry, cfg);
  QueryEngine::Config eng_cfg;
  eng_cfg.threads = 1;
  QueryEngine engine(registry, eng_cfg);

  // Bounding box of the input, so the demo hotspot drifts through the data.
  std::vector<double> lo(static_cast<size_t>(points.dim()));
  std::vector<double> hi(static_cast<size_t>(points.dim()));
  for (size_t d = 0; d < lo.size(); ++d) {
    lo[d] = hi[d] = points[0][d];
  }
  for (PointId i = 1; i < static_cast<PointId>(points.size()); ++i) {
    const auto p = points[i];
    for (size_t d = 0; d < lo.size(); ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }

  std::atomic<bool> stop{false};
  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(writers);
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(77 + w);
      std::vector<double> coords(lo.size());
      while (!stop.load(std::memory_order_relaxed)) {
        const double t = std::min(wall.seconds() / seconds, 1.0);
        for (size_t d = 0; d < coords.size(); ++d) {
          const double center = lo[d] + (0.1 + 0.8 * t) * (hi[d] - lo[d]);
          coords[d] = rng.normal(center, 0.02 * (hi[d] - lo[d]));
        }
        const SubmitResult r = pipeline.submit_insert(coords);
        if (!r.accepted) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              static_cast<long>(r.retry_after_ms * 1000.0)));
        }
      }
    });
  }

  // Sample the read path once in a while: reads never block on the ladder.
  Request probe;
  probe.type = RequestType::kClassify;
  u64 probes = 0;
  u64 degraded_probes = 0;
  while (wall.seconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Rng rng(probes);
    const auto p =
        points[static_cast<PointId>(rng.uniform_index(points.size()))];
    probe.point.assign(p.begin(), p.end());
    const Reply reply = engine.execute(probe);
    ++probes;
    degraded_probes += reply.degraded_model ? 1 : 0;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  std::fprintf(stderr, "stream: firehose over, draining...\n");
  pipeline.drain();

  const StreamMetrics m = pipeline.metrics();
  std::fprintf(
      stderr,
      "stream: done — submitted %llu, accepted %llu, shed %llu, acked %llu "
      "(%.0f ops/s), %llu micro-epochs, %llu publishes\n"
      "stream: ladder up %llu / down %llu (entries: pressured %llu, "
      "degraded %llu, shedding %llu); %llu/%llu probes answered from a "
      "degraded snapshot; final rung %s\n",
      static_cast<unsigned long long>(m.submitted),
      static_cast<unsigned long long>(m.accepted),
      static_cast<unsigned long long>(m.shed),
      static_cast<unsigned long long>(m.acked),
      wall.seconds() > 0 ? static_cast<double>(m.acked) / wall.seconds() : 0.0,
      static_cast<unsigned long long>(m.batches),
      static_cast<unsigned long long>(m.publishes),
      static_cast<unsigned long long>(m.transitions_up),
      static_cast<unsigned long long>(m.transitions_down),
      static_cast<unsigned long long>(m.rung_entries[1]),
      static_cast<unsigned long long>(m.rung_entries[2]),
      static_cast<unsigned long long>(m.rung_entries[3]),
      static_cast<unsigned long long>(degraded_probes),
      static_cast<unsigned long long>(probes), rung_name(m.rung));
  pipeline.stop();
  return m.rung == LadderRung::kHealthy ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.add_f64("eps", 0.5, "DBSCAN eps (ignored with --estimate_eps)");
  flags.add_bool("estimate_eps", false, "pick eps via the 4-dist heuristic");
  flags.add_i64("minpts", 5, "DBSCAN minpts");
  flags.add_i64("partitions", 8, "partitions/executors (spark/mr engines)");
  flags.add_string("engine", "spark", "seq | spark | mr");
  flags.add_i64("host-threads", 0,
                "host threads that parse the points file and run the spark "
                "engine's executor tasks (0 = every core, at most 16); "
                "labels do not depend on it");
  flags.add_string("backend", "exact",
                   "neighborhood backend (seq/spark engines): exact | knn "
                   "(approximate kNN graph; the high-dimensional mode)");
  flags.add_i64("knn-k", 16,
                "with --backend knn: graph neighbors per point (must be >= "
                "minpts - 1)");
  flags.add_bool("demo", false, "cluster a built-in demo dataset");
  flags.add_string("preset", "",
                   "generate a built-in synthetic dataset instead of reading "
                   "a file: c10k c100k r10k r100k r1m e10k64 e10k128 (the "
                   "e-presets are d=64/d=128 embedding workloads for "
                   "--backend knn); eps/minpts come from the preset");
  flags.add_bool("quiet", false, "suppress the stderr summary");
  flags.add_bool("serve", false,
                 "after clustering, answer queries from stdin (see header)");
  flags.add_f64("core_sample", 1.0,
                "serving core subsample fraction in (0,1] (DBSCAN++ knob)");
  flags.add_string("checkpoint-dir", "",
                   "crash-consistent job checkpoint directory (spark/mr "
                   "engines); partial results survive a driver death");
  flags.add_bool("resume", false,
                 "with --checkpoint-dir: recover committed partition results "
                 "from a previous crashed run and compute only the rest");
  flags.add_string("wal-dir", "",
                   "with --serve: registry write-ahead-log directory; a "
                   "restarted server replays it and republishes the last "
                   "committed epoch");
  flags.add_i64("shards", 1,
                "with --serve: consistent-hash shards; >1 (or --replicas>1) "
                "serves through the replicated tier");
  flags.add_i64("replicas", 1,
                "with --serve: WAL-shipped replicas per shard (primary + "
                "followers with automatic failover)");
  flags.add_bool("stream", false,
                 "after clustering, run the streaming-ingest firehose demo "
                 "(see header)");
  flags.add_i64("stream-writers", 2, "with --stream: producer threads");
  flags.add_f64("stream-seconds", 3.0, "with --stream: firehose duration");
  flags.parse(argc, argv);
  if (flags.i64_flag("host-threads") < 0) {
    std::fprintf(stderr, "--host-threads must be >= 0\n");
    return 2;
  }
  const auto host_threads = static_cast<u32>(flags.i64_flag("host-threads"));

  // --- load points ---
  const Stopwatch load_wall;
  const char* load_phase = "generate";
  PointSet points;
  std::optional<synth::DatasetSpec> preset;
  if (!flags.string("preset").empty()) {
    preset = synth::find_preset(flags.string("preset"));
    if (!preset) {
      std::fprintf(stderr, "unknown --preset '%s'\n",
                   flags.string("preset").c_str());
      return 2;
    }
    points = synth::generate(*preset, 42);
  } else if (flags.boolean("demo")) {
    Rng rng(7);
    points = synth::two_moons(500, 0.05, rng);
  } else {
    if (flags.positional().empty()) {
      std::fprintf(stderr, "usage: sdbscan_cli <points.txt> [flags] "
                           "(or --demo; --help for flags)\n");
      return 2;
    }
    const std::string& path = flags.positional().front();
    const std::optional<std::string> text = read_text_file(path);
    if (!text) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 2;
    }
    points = synth::from_text(*text, resolve_threads(host_threads));
    load_phase = "read+parse";
  }
  const double load_s = load_wall.seconds();
  if (points.empty()) {
    std::fprintf(stderr, "no points parsed\n");
    return 2;
  }

  const double eps = flags.boolean("estimate_eps") ? estimate_eps(points, 4)
                     : preset                      ? preset->eps
                                                   : flags.f64("eps");
  const dbscan::DbscanParams params{
      eps, preset ? preset->minpts : flags.i64_flag("minpts")};
  const auto partitions = static_cast<u32>(flags.i64_flag("partitions"));

  const std::string& backend = flags.string("backend");
  const bool use_knn = backend == "knn";
  if (!use_knn && backend != "exact") {
    std::fprintf(stderr, "unknown --backend '%s' (exact | knn)\n",
                 backend.c_str());
    return 2;
  }
  knn::KnnGraphConfig knn_cfg;
  knn_cfg.k = static_cast<u32>(flags.i64_flag("knn-k"));

  // --- cluster with the chosen engine ---
  dbscan::Clustering clustering;
  const std::string& engine = flags.string("engine");
  if (engine == "seq") {
    if (use_knn) {
      const knn::KnnGraph graph = knn::build_knn_graph(points, knn_cfg);
      clustering = knn::knn_dbscan(knn::KnnEpsGraph::build(graph, params));
    } else {
      const KdTree tree(points);
      clustering = dbscan::dbscan_sequential(points, tree, params).clustering;
    }
  } else if (engine == "spark") {
    minispark::ClusterConfig cluster;
    cluster.executors = partitions;
    cluster.host_threads = host_threads;
    minispark::SparkContext ctx(cluster);
    dbscan::SparkDbscanConfig cfg;
    cfg.params = params;
    if (use_knn) {
      cfg.backend = dbscan::DbscanBackend::kKnn;
      cfg.knn = knn_cfg;
    }
    cfg.partitions = partitions;
    cfg.checkpoint_dir = flags.string("checkpoint-dir");
    cfg.resume = flags.boolean("resume");
    dbscan::SparkDbscan dbscan(ctx, cfg);
    const auto report = dbscan.run(points);
    if (!flags.boolean("quiet")) {
      double task_max = 0.0;
      double task_sum = 0.0;
      for (const double t : report.wall_task_s) {
        task_max = std::max(task_max, t);
        task_sum += t;
      }
      const double task_mean =
          report.wall_task_s.empty()
              ? 0.0
              : task_sum / static_cast<double>(report.wall_task_s.size());
      std::fprintf(stderr,
                   "sdbscan: spark, host threads %u: wall %.3f s = %s %.3f "
                   "+ index %.3f + executors %.3f + decode+merge %.3f "
                   "+ other %.3f; tasks max %.3f mean %.3f max/mean %.2f\n",
                   ctx.host_threads(), load_s + report.wall_s, load_phase,
                   load_s, report.wall_index_s, report.wall_executor_s,
                   report.wall_merge_s,
                   report.wall_s - report.wall_index_s -
                       report.wall_executor_s - report.wall_merge_s,
                   task_max, task_mean,
                   task_mean > 0.0 ? task_max / task_mean : 0.0);
    }
    if (!cfg.checkpoint_dir.empty() && !flags.boolean("quiet")) {
      std::fprintf(stderr,
                   "sdbscan: checkpoint %s — resumed %llu partitions, "
                   "executed %llu\n",
                   cfg.checkpoint_dir.c_str(),
                   static_cast<unsigned long long>(report.resumed_partitions),
                   static_cast<unsigned long long>(report.executed_partitions));
    }
    clustering = report.clustering;
  } else if (engine == "mr") {
    if (use_knn) {
      std::fprintf(stderr, "--backend knn supports seq and spark engines\n");
      return 2;
    }
    dbscan::MRDbscanConfig cfg;
    cfg.params = params;
    cfg.partitions = partitions;
    cfg.mr.work_dir =
        (std::filesystem::temp_directory_path() / "sdbscan_cli_mr").string();
    cfg.checkpoint_dir = flags.string("checkpoint-dir");
    cfg.resume = flags.boolean("resume");
    const auto report = dbscan::mr_dbscan(points, cfg);
    if (!cfg.checkpoint_dir.empty() && !flags.boolean("quiet")) {
      std::fprintf(stderr,
                   "sdbscan: checkpoint %s — resumed %llu partitions, "
                   "executed %llu\n",
                   cfg.checkpoint_dir.c_str(),
                   static_cast<unsigned long long>(report.resumed_partitions),
                   static_cast<unsigned long long>(report.executed_partitions));
    }
    clustering = report.clustering;
    std::filesystem::remove_all(cfg.mr.work_dir);
  } else {
    std::fprintf(stderr, "unknown --engine '%s' (seq | spark | mr)\n",
                 engine.c_str());
    return 2;
  }

  if (flags.boolean("stream")) {
    return stream_demo(
        points, params,
        std::max<size_t>(1, static_cast<size_t>(flags.i64_flag("stream-writers"))),
        flags.f64("stream-seconds"));
  }

  if (flags.boolean("serve")) {
    if (!flags.boolean("quiet")) {
      const auto stats = dbscan::summarize(clustering);
      std::fprintf(stderr,
                   "sdbscan: clustered %zu points -> %llu clusters, "
                   "%llu noise; entering serve mode\n",
                   points.size(),
                   static_cast<unsigned long long>(stats.clusters),
                   static_cast<unsigned long long>(stats.noise));
    }
    const auto shards = static_cast<size_t>(flags.i64_flag("shards"));
    const auto replicas = static_cast<size_t>(flags.i64_flag("replicas"));
    if (shards > 1 || replicas > 1) {
      return serve_topology_loop(points, params, std::max<size_t>(1, shards),
                                 std::max<size_t>(1, replicas),
                                 flags.string("wal-dir"));
    }
    return serve_loop(points, params, flags.f64("core_sample"),
                      flags.string("wal-dir"));
  }

  // --- output: one label per input line ---
  for (const ClusterId label : clustering.labels) {
    std::printf("%lld\n", static_cast<long long>(label));
  }
  if (!flags.boolean("quiet")) {
    const auto stats = dbscan::summarize(clustering);
    std::fprintf(stderr,
                 "sdbscan: %zu points (d=%d), eps=%.6g, minpts=%lld, "
                 "engine=%s -> %llu clusters (largest %llu, mean %.1f), "
                 "%llu noise\n",
                 points.size(), points.dim(), eps,
                 static_cast<long long>(params.minpts), engine.c_str(),
                 static_cast<unsigned long long>(stats.clusters),
                 static_cast<unsigned long long>(stats.largest),
                 stats.mean_size,
                 static_cast<unsigned long long>(stats.noise));
  }
  return 0;
}
