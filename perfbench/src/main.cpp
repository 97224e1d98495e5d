// perfbench — end-to-end and per-layer benchmark of the repository.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--trace-out <file.json>]
//
// Prints context lines, one "metric <name> = <value> <unit>" line per
// metric, and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Every workload reports every metric of its mode; a per-layer metric of a
// layer the workload does not run reads 0.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "geom/distance_simd.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"latency_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ari", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"dfs.read_s", "s"},
    {"dfs.bytes_read", "bytes"},
    {"synth.parse_s", "s"},
    {"spatial.build_s", "s"},
    {"spatial.query_us", "us"},
    {"spatial.evals_per_query", "count"},
    {"spatial.hit_ratio", "ratio"},
    {"core.local_dbscan.task_s.max", "s"},
    {"core.local_dbscan.task_s.mean", "s"},
    {"core.local_dbscan.task_s.sum", "s"},
    {"core.local_dbscan.imbalance", "ratio"},
    {"core.local_dbscan.distance_evals", "count"},
    {"core.local_dbscan.tree_nodes", "count"},
    {"core.local_dbscan.hash_ops", "count"},
    {"core.local_dbscan.queue_ops", "count"},
    {"core.local_dbscan.frontier_peak", "count"},
    {"core.local_dbscan.evals_per_point", "count"},
    {"minispark.executor_phase_s", "s"},
    {"minispark.executor_phase.self_s", "s"},
    {"minispark.task.self_s", "s"},
    {"minispark.task_wait_s.max", "s"},
    {"minispark.parallel_eff", "ratio"},
    {"minispark.broadcast_bytes", "bytes"},
    {"minispark.accumulator_bytes", "bytes"},
    {"core.codec.encode_s", "s"},
    {"core.codec.decode_s", "s"},
    {"core.merge_s", "s"},
    {"core.merge.seeds_examined", "count"},
    {"core.merge.partial_clusters", "count"},
    {"core.merge.merges", "count"},
    {"core.merge.ops", "count"},
    {"sim.total_s", "s"},
    {"sim.executor_s", "s"},
    {"sim.driver_s", "s"},
    {"knn.graph_build_s", "s"},
    {"knn.graph_rounds", "count"},
    {"knn.graph_evals", "count"},
    {"knn.ns_per_eval", "ns"},
    {"knn.eps_graph_s", "s"},
    {"knn.local_bfs_s", "s"},
    {"serve.classify_exec_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.publish_ms", "ms"},
    {"serve.publishes", "count"},
    {"serve.insert_exec_us", "us"},
    {"serve.requests_per_s", "1/s"},
    {"serve.classify_p50_us", "us"},
    {"serve.classify_p99_us", "us"},
    {"serve.insert_p50_us", "us"},
    {"serve.insert_p99_us", "us"},
    {"trace.pipeline.self_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

struct Workload {
  const char* name;
  void (*run)(const Options&, Result&);
};

constexpr Workload kWorkloads[] = {
    {"pipeline_c100k", perfbench::run_pipeline},
    {"knn_e10k64", perfbench::run_pipeline},
    {"serve_mixed", perfbench::run_serve},
};

Options parse(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1) throw std::invalid_argument("flags come in pairs");
  auto need = [&](const char* key) {
    const auto it = args.find(key);
    if (it == args.end()) {
      throw std::invalid_argument(std::string("missing --") + key);
    }
    return it->second;
  };
  Options o;
  o.workload = need("workload");
  o.seed = std::stoull(need("seed"));
  o.seconds = std::stod(need("seconds"));
  o.trace = need("trace") == "1";
  o.work_dir = need("work-dir");
  if (args.count("trace-out") != 0) o.trace_out = args["trace-out"];
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  if (need("trace") != "0" && need("trace") != "1") {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    const Workload* workload = nullptr;
    for (const Workload& w : kWorkloads) {
      if (options.workload == w.name) workload = &w;
    }
    if (workload == nullptr) {
      throw std::invalid_argument("unknown workload " + options.workload);
    }
    std::filesystem::create_directories(options.work_dir);
    Result result;
    result.note("workload = " + options.workload +
                ", seed = " + std::to_string(options.seed));
    result.note("nproc = " + std::to_string(std::thread::hardware_concurrency()) +
                ", kernel = " + sdb::simd::active_variant_name());
    workload->run(options, result);
    std::filesystem::remove_all(options.work_dir);

    for (const std::string& line : result.notes) std::printf("%s\n", line.c_str());
    std::string json = "{\"correct\": ";
    json += result.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const MetricDef& def, bool required) {
      const auto it = result.metrics.find(def.name);
      if (it == result.metrics.end() && required) {
        throw std::logic_error(std::string("metric not measured: ") + def.name);
      }
      const double value = it == result.metrics.end() ? 0.0 : it->second;
      if (!std::isfinite(value)) {
        throw std::logic_error(std::string("metric not finite: ") + def.name);
      }
      char buf[128];
      std::printf("metric %s = %.17g %s\n", def.name, value, def.unit);
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", def.name, value, def.unit);
      json += buf;
      first = false;
    };
    if (options.trace) {
      for (const MetricDef& def : kPerLayer) emit(def, false);
    } else {
      for (const MetricDef& def : kEndToEnd) emit(def, true);
    }
    if (result.attempted == 0) throw std::logic_error("no operation attempted");
    std::printf("failed_frac = %.6f (%llu of %llu operations)\n",
                static_cast<double>(result.failed) / static_cast<double>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
