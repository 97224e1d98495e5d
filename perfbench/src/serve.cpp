// The serving workload, serve_mixed: a ModelRegistry bootstrapped with 50k
// blobs_2d points serves behind a default-configured QueryEngine while one
// client thread drives it in a closed loop: it sends a request, waits for
// the reply, and sends the next one at once. Most requests classify a point;
// an insert goes out whenever one is due on a fixed 250/s clock. Inserts
// republish the model every 64 mutations (the registry default), so publish
// cost shows in the insert tail.
//
// Latency is taken per request from its send to its reply callback.
// Percentiles come from the kept samples, not from the engine's bucketed
// histogram.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>

#include <sched.h>

#include "common.hpp"
#include "core/dbscan_seq.hpp"
#include "core/quality.hpp"
#include "serve/query_engine.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/generators.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {
namespace {

using sdb::PointId;
using sdb::PointSet;
using sdb::Rng;
using sdb::Stopwatch;
using sdb::u64;
namespace dbscan = sdb::dbscan;
namespace serve = sdb::serve;
using Clock = std::chrono::steady_clock;

constexpr sdb::i64 kBlobPoints = 47'500;
constexpr sdb::i64 kBackgroundPoints = 2'500;  // 5% of the 50k
constexpr int kBlobs = 12;
constexpr double kSigma = 0.02;
constexpr dbscan::DbscanParams kParams{0.02, 5};
// Why a closed loop: an open loop at a rate the engine sustains without
// shedding on a shared 4-vCPU host (5k/s) leaves each worker idle ~400 us
// between requests, and its p50 (~30 us, ~3 us of it classify work) is then
// mostly the hypervisor's time to wake an idle vCPU, which moved between 21
// and 58 us with the host's load. Faster open loops shed, or queued behind
// publish stalls when the host slowed. A client that sends as soon as its
// reply is in finds a worker that has just gone idle, so the figure is the
// engine's own request path. See README.md.
constexpr double kInsertPerSecond = 250.0;
constexpr double kHotFraction = 0.25;
constexpr size_t kHotPoints = 64;
constexpr double kJitter = 0.01;
constexpr int kSetupReps = 3;
constexpr size_t kClassifyProbes = 2000;
constexpr size_t kInsertProbes = 256;
constexpr int kPublishProbes = 5;
/// The traced half of a traced run records a span for every kTraceEvery-th
/// request (a run sends millions).
constexpr u64 kTraceEvery = 64;
/// Untimed loop before the measured region, so the engine's result cache
/// holds the hot points before timing starts.
constexpr double kWarmupSeconds = 1.0;

/// Busy-wait hint between clock reads (yields pipeline resources to an SMT
/// sibling and lets a hypervisor see the spin).
inline void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// The client stands in for a caller on another machine: it gets one CPU to
/// itself (it spins while it waits for each reply), and the system under
/// test gets the rest. The engine's workers, and every thread they spawn,
/// inherit the affinity of the thread that created them. Without the split,
/// a publish's parallel index build preempts the spinning client for
/// milliseconds, and that lands in the measured tail. A single-CPU host gets
/// no split.
struct CpuSplit {
  cpu_set_t generator{};
  cpu_set_t system{};
  bool active = false;
};

bool pin(const cpu_set_t& cpus) {
  return sched_setaffinity(0, sizeof(cpus), &cpus) == 0;
}

/// Moves the calling thread onto the system CPUs.
CpuSplit split_cpus() {
  CpuSplit split;
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof(all), &all) != 0 || CPU_COUNT(&all) < 2) {
    return split;
  }
  CPU_ZERO(&split.generator);
  split.system = all;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &all)) {
      CPU_SET(cpu, &split.generator);
      CPU_CLR(cpu, &split.system);
      break;
    }
  }
  split.active = pin(split.system);
  return split;
}

/// Points as the registry numbers them: id i is row i.
struct LiveSet {
  PointSet bootstrap{2};
  std::vector<std::array<double, 2>> inserted;  // index = id - bootstrap size
  std::vector<char> seen;
  bool consistent = true;

  void record(PointId id, std::span<const double> coords) {
    const auto base = static_cast<PointId>(bootstrap.size());
    if (id < base) {
      consistent = false;
      return;
    }
    const auto slot = static_cast<size_t>(id - base);
    if (slot >= inserted.size()) {
      inserted.resize(slot + 1);
      seen.resize(slot + 1, 0);
    }
    if (seen[slot] != 0) consistent = false;
    seen[slot] = 1;
    inserted[slot] = {coords[0], coords[1]};
  }
};

std::vector<double> near_data(const PointSet& data, Rng& rng) {
  const auto p = data[static_cast<PointId>(rng.uniform_index(data.size()))];
  return {p[0] + rng.uniform(-kJitter, kJitter),
          p[1] + rng.uniform(-kJitter, kJitter)};
}

/// The request stream: classify requests, a quarter of them on one of 64 hot
/// points and the rest jittered by up to ±kJitter around data points, and
/// near-data inserts.
class RequestMaker {
 public:
  RequestMaker(const PointSet& data, u64 seed)
      : data_(data), rng_(sdb::derive_seed(seed, "serve_mixed.requests")) {
    for (size_t k = 0; k < kHotPoints; ++k) {
      const auto p = data[static_cast<PointId>(rng_.uniform_index(data.size()))];
      hot_.emplace_back(p.begin(), p.end());
    }
  }

  serve::Request next(bool insert) {
    serve::Request request;
    if (insert) {
      request.type = serve::RequestType::kInsert;
      request.point = near_data(data_, rng_);
    } else {
      request.type = serve::RequestType::kClassify;
      request.point = rng_.chance(kHotFraction) ? hot_[rng_.uniform_index(hot_.size())]
                                                : near_data(data_, rng_);
    }
    return request;
  }

 private:
  const PointSet& data_;
  Rng rng_;
  std::vector<std::vector<double>> hot_;
};

/// Latency samples of one loop, in microseconds. A run keeps over a million,
/// so they are floats, and kept once each: peak_rss_mb should move with the
/// engine's memory, not with how many samples a faster run collects.
struct LoopStats {
  std::vector<std::vector<float>> classify;  ///< by 1-s window of send time
  std::vector<float> insert;
  size_t requests = 0;
  double seconds = 0.0;  ///< wall time of the loop
};

/// Drive the engine for `seconds` from the calling thread, one request at a
/// time: send, spin until the reply callback has run, send the next. An
/// insert goes out whenever one is due on the kInsertPerSecond clock (after
/// a publish, the overdue ones go out back to back). A reply other than kOk
/// counts as a failed operation; inserted points are recorded in `live`.
/// With a tracer, every kTraceEvery-th request gets a span from send to
/// reply.
LoopStats closed_loop(serve::QueryEngine& engine, RequestMaker& maker,
                      double seconds, LiveSet& live, const CpuSplit& cpus,
                      Result& result, Tracer* tracer, SpanId parent) {
  LoopStats stats;
  if (cpus.active) pin(cpus.generator);
  std::atomic<bool> replied{false};
  serve::Reply reply;
  Clock::time_point replied_at;
  const Clock::time_point t0 = Clock::now();
  double next_insert_s = 0.5 / kInsertPerSecond;
  for (u64 n = 0;; ++n) {
    const double t = std::chrono::duration<double>(Clock::now() - t0).count();
    if (t >= seconds) break;
    const bool insert = t >= next_insert_s;
    if (insert) next_insert_s += 1.0 / kInsertPerSecond;
    serve::Request request = maker.next(insert);
    std::vector<double> point;
    if (insert) point = request.point;
    const SpanId span = tracer != nullptr && n % kTraceEvery == 0
                            ? tracer->begin("serve.request", parent, 0)
                            : kNoParent;
    replied.store(false, std::memory_order_relaxed);
    const Clock::time_point sent = Clock::now();
    engine.try_submit(std::move(request), [&](const serve::Reply& r) {
      replied_at = Clock::now();
      reply = r;
      replied.store(true, std::memory_order_release);
    });
    while (!replied.load(std::memory_order_acquire)) spin_pause();
    if (span != kNoParent) tracer->end(span);
    const auto us = static_cast<float>(
        std::chrono::duration<double, std::micro>(replied_at - sent).count());
    if (insert) {
      stats.insert.push_back(us);
    } else {
      const auto w = static_cast<size_t>(t);
      if (w >= stats.classify.size()) stats.classify.resize(w + 1);
      stats.classify[w].push_back(us);
    }
    ++stats.requests;
    result.count(reply.status == serve::ReplyStatus::kOk);
    if (insert && reply.status == serve::ReplyStatus::kOk) live.record(reply.id, point);
  }
  stats.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  if (cpus.active) pin(cpus.system);
  return stats;
}

struct Percentiles {
  double p50 = 0.0;
  double p99 = 0.0;
  size_t n = 0;
};

Percentiles percentiles(const std::vector<float>& samples) {
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return {percentile_sorted(sorted, 50.0), percentile_sorted(sorted, 99.0),
          sorted.size()};
}

/// Latency split of one loop by request type.
struct LoopSummary {
  Percentiles classify, insert;
};

LoopSummary summarize(const char* phase, const LoopStats& stats, Result& result) {
  std::vector<float> classify;
  for (const std::vector<float>& w : stats.classify) {
    classify.insert(classify.end(), w.begin(), w.end());
  }
  const LoopSummary s{percentiles(classify), percentiles(stats.insert)};
  char line[256];
  auto row = [&](const char* what, const Percentiles& p) {
    std::snprintf(line, sizeof(line),
                  "%s %-8s p50 %10.1f us  p99 %10.1f us  (n=%zu)", phase, what,
                  p.p50, p.p99, p.n);
    result.note(line);
  };
  row("classify", s.classify);
  row("insert", s.insert);
  std::snprintf(line, sizeof(line), "%s %.0f requests/s", phase,
                static_cast<double>(stats.requests) / stats.seconds);
  result.note(line);
  return s;
}

/// latency_ms: each 1-second window of send times gets its own classify
/// p50, and the metric is the median across windows, so a host hiccup of a
/// few seconds moves a few windows instead of the run's figure. The
/// windows' median p99 is printed beside it.
void report_windowed_latency(const LoopStats& stats, Result& result) {
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (const std::vector<float>& w : stats.classify) {
    const Percentiles p = percentiles(w);
    p50s.push_back(p.p50 * 1e-3);
    p99s.push_back(p.p99 * 1e-3);
  }
  result.metrics["latency_ms"] = median(p50s);
  char line[160];
  std::snprintf(line, sizeof(line),
                "classify latency: median over %zu 1-s windows: p50 %.6g ms, "
                "p99 %.6g ms",
                stats.classify.size(), median(p50s), median(p99s));
  result.note(line);
}

/// Final output check: publish what is pending, then the served labels of
/// every live point must be structurally equivalent to dbscan_sequential
/// over the same points. Also sets `ari`.
void check_registry(serve::ModelRegistry& registry, const LiveSet& live,
                    Result& result) {
  registry.publish();
  const std::shared_ptr<const serve::ClusterModel> model = registry.model();
  PointSet points = live.bootstrap;
  bool consistent = live.consistent;
  for (size_t k = 0; k < live.inserted.size(); ++k) {
    if (live.seen[k] == 0) consistent = false;
    points.add(live.inserted[k]);
  }
  consistent = consistent && registry.active_points() == points.size();
  dbscan::Clustering served;
  served.num_clusters = model->num_clusters();
  for (size_t i = 0; i < points.size(); ++i) {
    served.labels.push_back(model->label_of(static_cast<PointId>(i)));
  }
  const sdb::KdTree tree(points);
  const dbscan::SeqResult seq = dbscan::dbscan_sequential(points, tree, kParams);
  const dbscan::EquivalenceReport eq = dbscan::check_equivalence(
      points, tree, kParams, seq.core_points, seq.clustering, served);
  if (!consistent) result.note("registry ids do not match the inserted points");
  if (!eq.equivalent) result.note("equivalence check failed: " + eq.detail);
  result.count(consistent && eq.equivalent);
  result.metrics["ari"] = dbscan::adjusted_rand_index(seq.clustering, served);
}

}  // namespace

void run_serve(const Options& options, Result& result) {
  const CpuSplit cpus = split_cpus();
  result.note(cpus.active ? "client on its own CPU; system under test on the other " +
                                std::to_string(CPU_COUNT(&cpus.system)) + " CPUs"
                          : std::string("no CPU split: client shares the CPUs"));
  // --- setup: generate the data and bootstrap the registry, kSetupReps
  // times; setup_s is the median, the last registry serves.
  serve::ModelRegistry::Config registry_config;
  registry_config.params = kParams;
  LiveSet live;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    registry.reset();
    Stopwatch sw;
    Rng rng(sdb::derive_seed(options.seed, "serve_mixed.data"));
    live.bootstrap = sdb::synth::blobs_2d(kBlobPoints, kBlobs, kSigma,
                                          kBackgroundPoints, rng);
    registry = std::make_unique<serve::ModelRegistry>(registry_config, 2);
    registry->bootstrap(live.bootstrap);
    setup_times.push_back(sw.seconds());
  }
  result.metrics["setup_s"] = median(setup_times);

  serve::QueryEngine engine(*registry, serve::QueryEngine::Config{});
  const unsigned workers = serve::QueryEngine::Config{}.threads;
  result.note("host_threads = " + std::to_string(workers) + " (QueryEngine workers)");

  RequestMaker maker(live.bootstrap, options.seed);
  closed_loop(engine, maker, kWarmupSeconds, live, cpus, result, nullptr, kNoParent);
  if (!options.trace) {
    if (!reset_peak_rss()) result.note("peak RSS window could not be reset");
    const LoopStats stats = closed_loop(engine, maker, options.seconds, live, cpus,
                                        result, nullptr, kNoParent);
    result.metrics["peak_rss_mb"] = peak_rss_mb();
    summarize("serve", stats, result);
    report_windowed_latency(stats, result);
    check_registry(*registry, live, result);
    return;
  }

  // --- traced per-layer run: half the region untraced, half with spans,
  // then synchronous probes of each serving call.
  Tracer tracer;
  const u64 publishes_before = registry->publishes();
  const serve::MetricsSnapshot engine_before = engine.metrics();
  const double half = options.seconds / 2.0;
  const LoopStats untraced =
      closed_loop(engine, maker, half, live, cpus, result, nullptr, kNoParent);
  const LoopSummary su = summarize("untraced", untraced, result);
  {
    ScopedSpan loop(tracer, "serve.closed_loop", kNoParent, 0);
    const LoopStats traced =
        closed_loop(engine, maker, half, live, cpus, result, &tracer, loop.id());
    const LoopSummary st = summarize("traced", traced, result);
    result.metrics["trace.overhead_frac"] = st.classify.p50 / su.classify.p50 - 1.0;
  }
  const serve::MetricsSnapshot engine_after = engine.metrics();
  const u64 hits = engine_after.cache_hits - engine_before.cache_hits;
  const u64 misses = engine_after.cache_misses - engine_before.cache_misses;
  result.metrics["serve.cache_hit_ratio"] =
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                        : 0.0;
  result.metrics["serve.publishes"] =
      static_cast<double>(registry->publishes() - publishes_before);
  result.metrics["serve.requests_per_s"] =
      static_cast<double>(untraced.requests) / untraced.seconds;
  result.metrics["serve.classify_p50_us"] = su.classify.p50;
  result.metrics["serve.classify_p99_us"] = su.classify.p99;
  result.metrics["serve.insert_p50_us"] = su.insert.p50;
  result.metrics["serve.insert_p99_us"] = su.insert.p99;

  Rng rng(sdb::derive_seed(options.seed, "serve_mixed.probes"));
  {
    // Cold classify through the synchronous engine path (fresh jittered
    // points, so the cache misses).
    std::vector<double> times;
    ScopedSpan probe(tracer, "serve.classify_probe", kNoParent, 0);
    for (size_t k = 0; k < kClassifyProbes; ++k) {
      serve::Request request;
      request.type = serve::RequestType::kClassify;
      request.point = near_data(live.bootstrap, rng);
      const Stopwatch sw;
      const serve::Reply reply = engine.execute(request);
      times.push_back(sw.seconds() * 1e6);
      result.count(reply.status == serve::ReplyStatus::kOk);
    }
    result.metrics["serve.classify_exec_us"] = median(times);
  }
  {
    // ModelRegistry::insert; calls that crossed the publish cadence are
    // excluded (they are priced by the publish probe below).
    std::vector<double> times;
    ScopedSpan probe(tracer, "serve.insert_probe", kNoParent, 0);
    for (size_t k = 0; k < kInsertProbes; ++k) {
      const std::vector<double> point = near_data(live.bootstrap, rng);
      const u64 before = registry->publishes();
      const Stopwatch sw;
      const PointId id = registry->insert(point);
      const double us = sw.seconds() * 1e6;
      live.record(id, point);
      if (registry->publishes() == before) times.push_back(us);
    }
    result.metrics["serve.insert_exec_us"] = median(times);
  }
  {
    std::vector<double> times;
    ScopedSpan probe(tracer, "serve.publish_probe", kNoParent, 0);
    for (int k = 0; k < kPublishProbes; ++k) {
      const Stopwatch sw;
      registry->publish();
      times.push_back(sw.seconds() * 1e3);
    }
    result.metrics["serve.publish_ms"] = median(times);
  }
  for (const auto& [name, t] : tracer.totals()) result.note(span_line(name, t));
  check_registry(*registry, live, result);
  if (!options.trace_out.empty()) tracer.write(options.trace_out);
}

}  // namespace perfbench
