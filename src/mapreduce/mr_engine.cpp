#include "mapreduce/mr_engine.hpp"

#include <algorithm>
#include <filesystem>

#include "fault/injection.hpp"
#include "minispark/metrics.hpp"
#include "util/fnv.hpp"
#include "util/serialize.hpp"
#include "util/stopwatch.hpp"

namespace sdb::mapreduce {

namespace fs = std::filesystem;

namespace {

void write_kv_run(const std::string& path, const std::vector<KV>& run) {
  BinaryWriter w;
  w.write_u64(run.size());
  for (const KV& kv : run) {
    w.write_string(kv.key);
    w.write_string(kv.value);
  }
  write_file(path, w.buffer());
}

std::vector<KV> read_kv_run(const std::string& path) {
  const std::vector<char> data = read_file(path);
  BinaryReader r(data);
  const u64 n = r.read_u64();
  // Each pair carries two u64 length prefixes: a count the file's bytes
  // cannot hold is corrupt, and must not size the reservation below.
  SDB_CHECK(n <= r.remaining() / (2 * sizeof(u64)),
            "corrupt spill file: pair count exceeds its bytes");
  std::vector<KV> run;
  run.reserve(n);
  for (u64 i = 0; i < n; ++i) {
    KV kv;
    kv.key = r.read_string();
    kv.value = r.read_string();
    run.push_back(std::move(kv));
  }
  return run;
}

}  // namespace

MRJob::MRJob(MRConfig config, std::string name, Mapper mapper, Reducer reducer)
    : config_(std::move(config)),
      name_(std::move(name)),
      mapper_(std::move(mapper)),
      reducer_(std::move(reducer)) {
  SDB_CHECK(config_.reduce_tasks > 0, "need at least one reduce task");
  SDB_CHECK(config_.cores > 0, "need at least one core");
  fs::create_directories(config_.work_dir);
}

std::string MRJob::spill_path(u32 map_task, u32 reduce_task) const {
  return (fs::path(config_.work_dir) /
          (name_ + "_m" + std::to_string(map_task) + "_r" +
           std::to_string(reduce_task) + ".spill"))
      .string();
}

std::vector<KV> MRJob::run(const std::vector<std::string>& input_splits) {
  Stopwatch wall;
  metrics_ = MRJobMetrics{};
  metrics_.name = name_;

  const u32 map_tasks = static_cast<u32>(input_splits.size());
  const u32 reduce_tasks = config_.reduce_tasks;

  // ---- Map phase: run mapper, partition by key hash, sort, spill to disk.
  // One attempt is the whole task; spills are truncating overwrites, so a
  // retried or speculatively-duplicated attempt leaves identical state.
  std::vector<double> map_durations;
  map_durations.reserve(map_tasks);
  auto run_map_attempt = [&](u32 m) {
    if (SDB_INJECT("mr.map.fail")) throw fault::InjectedFault("mr.map.fail");
    std::vector<std::vector<KV>> buckets(reduce_tasks);
    const MRJob::Emit emit = [&](std::string key, std::string value) {
      const u64 r = fnv1a(key.data(), key.size()) % reduce_tasks;
      buckets[r].push_back(KV{std::move(key), std::move(value)});
    };
    mapper_(m, input_splits[m], emit);
    for (u32 r = 0; r < reduce_tasks; ++r) {
      std::sort(buckets[r].begin(), buckets[r].end(),
                [](const KV& a, const KV& b) { return a.key < b.key; });
      write_kv_run(spill_path(m, r), buckets[r]);
    }
  };
  for (u32 m = 0; m < map_tasks; ++m) {
    WorkCounters wc;
    RetryStats stats;
    retry_call(
        config_.task_retry, /*seed=*/m,
        [&] {
          WorkCounters attempt_wc;
          {
            ScopedCounters scope(&attempt_wc);
            run_map_attempt(m);
          }
          wc = attempt_wc;  // only the surviving attempt's work is charged
          return 0;
        },
        &stats);
    metrics_.map_retries += stats.retries;
    if (SDB_INJECT("mr.map.duplicate")) {
      // Speculative execution: the same task runs again elsewhere; both
      // copies spill, the later overwrite is byte-identical. The duplicate
      // retries its own injected failures like any attempt.
      RetryStats dup_stats;
      retry_call(
          config_.task_retry, /*seed=*/map_tasks + m,
          [&] {
            ScopedCounters scope(&wc);  // duplicate work is real, charge it
            run_map_attempt(m);
            return 0;
          },
          &dup_stats);
      metrics_.map_retries += dup_stats.retries;
      ++metrics_.duplicate_map_tasks;
    }
    metrics_.spill_bytes += wc.bytes_written;
    map_durations.push_back(config_.task_overhead_s * stats.attempts +
                            stats.backoff_s +
                            minispark::CostModel::compute_seconds(wc));
  }
  metrics_.map.tasks = map_tasks;
  for (const double d : map_durations) metrics_.map.sim_total_s += d;
  metrics_.map.sim_makespan_s =
      minispark::list_schedule_makespan(map_durations, config_.cores);

  // ---- Shuffle + sort + reduce phase. Spills are deleted only after the
  // whole job succeeds, so a failed reduce attempt can always re-read them
  // (Hadoop keeps map output until the job commits, for exactly this
  // reason).
  std::vector<KV> output;
  std::vector<double> reduce_durations;
  reduce_durations.reserve(reduce_tasks);
  std::vector<std::string> spent_spills;
  double shuffle_s = 0.0;
  for (u32 r = 0; r < reduce_tasks; ++r) {
    WorkCounters wc;
    std::vector<KV> records;
    double shuffle_backoff_s = 0.0;
    {
      ScopedCounters scope(&wc);
      // Remote read of every map task's spill for this partition. The disk
      // read is physical; the network hop is priced via net_bytes. A
      // transient remote-read failure (site mr.shuffle.fail) is retried
      // with backoff like a real fetch failure.
      for (u32 m = 0; m < map_tasks; ++m) {
        const std::string path = spill_path(m, r);
        RetryStats fetch_stats;
        std::vector<KV> run = retry_call(
            config_.task_retry,
            /*seed=*/static_cast<u64>(m) * 1000003ull + r,
            [&] {
              if (SDB_INJECT("mr.shuffle.fail")) {
                throw fault::InjectedFault("mr.shuffle.fail");
              }
              return read_kv_run(path);
            },
            &fetch_stats);
        metrics_.shuffle_retries += fetch_stats.retries;
        shuffle_backoff_s += fetch_stats.backoff_s;
        spent_spills.push_back(path);
        for (auto& kv : run) records.push_back(std::move(kv));
      }
      u64 bytes = 0;
      for (const KV& kv : records) bytes += kv.key.size() + kv.value.size();
      counters::net_bytes(bytes);
      metrics_.shuffle_bytes += bytes;

      // Merge-sort so all occurrences of a key are adjacent.
      std::stable_sort(records.begin(), records.end(),
                       [](const KV& a, const KV& b) { return a.key < b.key; });
    }
    shuffle_s += minispark::CostModel::compute_seconds(wc) + shuffle_backoff_s;

    WorkCounters rc;
    RetryStats stats;
    std::vector<KV> task_output;
    retry_call(
        config_.task_retry, /*seed=*/7919ull + r,
        [&] {
          // The injected failure fires before any record is consumed, so a
          // retry sees `records` untouched (reducer runs move values out).
          if (SDB_INJECT("mr.reduce.fail")) {
            throw fault::InjectedFault("mr.reduce.fail");
          }
          task_output.clear();
          WorkCounters attempt_rc;
          {
            ScopedCounters scope(&attempt_rc);
            const MRJob::Emit emit = [&](std::string key, std::string value) {
              task_output.push_back(KV{std::move(key), std::move(value)});
            };
            size_t i = 0;
            while (i < records.size()) {
              size_t j = i;
              std::vector<std::string> values;
              while (j < records.size() && records[j].key == records[i].key) {
                values.push_back(std::move(records[j].value));
                ++j;
              }
              reducer_(records[i].key, values, emit);
              i = j;
            }
          }
          rc = attempt_rc;
          return 0;
        },
        &stats);
    metrics_.reduce_retries += stats.retries;
    for (auto& kv : task_output) output.push_back(std::move(kv));
    reduce_durations.push_back(config_.task_overhead_s * stats.attempts +
                               stats.backoff_s +
                               minispark::CostModel::compute_seconds(rc));
  }
  // Job commit: map outputs are no longer needed.
  for (const std::string& path : spent_spills) fs::remove(path);
  metrics_.reduce.tasks = reduce_tasks;
  for (const double d : reduce_durations) {
    metrics_.reduce.sim_total_s += d;
  }
  metrics_.reduce.sim_makespan_s =
      minispark::list_schedule_makespan(reduce_durations, config_.cores);
  metrics_.shuffle_s = shuffle_s;

  std::sort(output.begin(), output.end(),
            [](const KV& a, const KV& b) { return a.key < b.key; });

  metrics_.wall_s = wall.seconds();
  metrics_.sim_total_s = config_.job_startup_s + metrics_.map.sim_makespan_s +
                         metrics_.shuffle_s + metrics_.reduce.sim_makespan_s;
  return output;
}

}  // namespace sdb::mapreduce
