// The simulated cluster clock: cost model arithmetic, its scaling laws, and
// the bits of every simulated time one fixed job of each engine reports.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/mr_dbscan.hpp"
#include "core/spark_dbscan.hpp"
#include "fault/fault_plan.hpp"
#include "minispark/cost_model.hpp"
#include "minispark/metrics.hpp"
#include "synth/generators.hpp"
#include "util/rng.hpp"

namespace sdb::minispark {
namespace {

/// The bit patterns of `values`, so a golden compares times exactly.
std::vector<u64> bits(std::initializer_list<double> values) {
  std::vector<u64> out;
  for (const double v : values) out.push_back(std::bit_cast<u64>(v));
  return out;
}

/// `values` as hex literals, for a failure message that can be pasted back.
std::string hex(const std::vector<u64>& values) {
  std::string out;
  char buf[32];
  for (const u64 v : values) {
    std::snprintf(buf, sizeof(buf), "0x%016llxull, ",
                  static_cast<unsigned long long>(v));
    out += buf;
  }
  return out;
}

TEST(CostModel, ComputeSecondsLinearInOps) {
  CostModel cm;
  WorkCounters a;
  a.distance_evals = 1'000'000;
  WorkCounters b = a;
  b.distance_evals = 2'000'000;
  EXPECT_NEAR(cm.compute_seconds(b), 2.0 * cm.compute_seconds(a), 1e-12);
}

TEST(CostModel, AllOpKindsPriced) {
  CostModel cm;
  WorkCounters wc;
  EXPECT_DOUBLE_EQ(cm.compute_seconds(wc), 0.0);
  wc.distance_evals = 1;
  const double d1 = cm.compute_seconds(wc);
  EXPECT_GT(d1, 0.0);
  wc.tree_nodes = 1;
  wc.hash_ops = 1;
  wc.queue_ops = 1;
  wc.points_processed = 1;
  wc.seed_ops = 1;
  wc.merge_ops = 1;
  EXPECT_GT(cm.compute_seconds(wc), d1);
}

TEST(CostModel, DiskBytesPricedAtBandwidth) {
  CostModel cm;
  WorkCounters wc;
  wc.bytes_read = static_cast<u64>(cm.disk_read_bps);  // 1 second worth
  EXPECT_NEAR(cm.compute_seconds(wc), 1.0, 1e-9);
  WorkCounters ww;
  ww.bytes_written = static_cast<u64>(cm.disk_write_bps);
  EXPECT_NEAR(cm.compute_seconds(ww), 1.0, 1e-9);
}

TEST(CostModel, NetworkBytesIncludeLatency) {
  CostModel cm;
  WorkCounters wc;
  wc.net_bytes = static_cast<u64>(cm.net_bps);
  EXPECT_NEAR(cm.compute_seconds(wc), 1.0 + cm.net_latency_s, 1e-9);
}

TEST(CostModel, BroadcastGrowsSublinearlyWithExecutors) {
  CostModel cm;
  const u64 bytes = 100'000'000;
  const double t2 = cm.broadcast_seconds(bytes, 2);
  const double t512 = cm.broadcast_seconds(bytes, 512);
  EXPECT_GT(t512, t2);
  // Torrent-style: 256x the executors costs far less than 256x the time.
  EXPECT_LT(t512, t2 * 16);
}

TEST(CostModel, TransferLinearInBytes) {
  CostModel cm;
  const double t1 = cm.transfer_seconds(1'000'000);
  const double t2 = cm.transfer_seconds(2'000'000);
  EXPECT_GT(t2, t1);
  EXPECT_NEAR(t2 - t1, 1e6 / cm.net_bps, 1e-12);
}

TEST(ListSchedule, EqualTasksPerfectSpeedup) {
  const std::vector<double> tasks(64, 1.0);
  for (const u32 cores : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    EXPECT_DOUBLE_EQ(list_schedule_makespan(tasks, cores),
                     64.0 / cores);
  }
}

TEST(ListSchedule, ImbalanceLimitsSpeedup) {
  // One long task bounds the makespan no matter how many cores.
  std::vector<double> tasks(15, 1.0);
  tasks.push_back(10.0);
  EXPECT_DOUBLE_EQ(list_schedule_makespan(tasks, 1000), 10.0);
}

TEST(ListSchedule, MoreCoresNeverSlower) {
  const std::vector<double> tasks = {5, 3, 8, 1, 1, 9, 2, 4};
  double prev = list_schedule_makespan(tasks, 1);
  for (u32 c = 2; c <= 16; ++c) {
    const double now = list_schedule_makespan(tasks, c);
    EXPECT_LE(now, prev + 1e-12);
    prev = now;
  }
}

TEST(ListSchedule, SingleCoreIsSum) {
  const std::vector<double> tasks = {0.5, 1.5, 2.0};
  EXPECT_DOUBLE_EQ(list_schedule_makespan(tasks, 1), 4.0);
}

TEST(ListSchedule, FullScheduleLaws) {
  const std::vector<double> d = {3, 1, 4, 1, 5};
  const auto schedule = list_schedule(d, 2);
  ASSERT_EQ(schedule.size(), 5u);
  // Tasks appear once, in submission order.
  for (u32 t = 0; t < 5; ++t) EXPECT_EQ(schedule[t].task, t);
  // No overlap on any core.
  for (size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_GE(schedule[i].end_s, schedule[i].start_s);
    EXPECT_LT(schedule[i].core, 2u);
    for (size_t j = i + 1; j < schedule.size(); ++j) {
      if (schedule[i].core != schedule[j].core) continue;
      const bool disjoint = schedule[i].end_s <= schedule[j].start_s ||
                            schedule[j].end_s <= schedule[i].start_s;
      EXPECT_TRUE(disjoint) << "tasks " << i << "," << j << " overlap";
    }
  }
  // Schedule end agrees with the makespan function.
  double end = 0.0;
  for (const auto& t : schedule) end = std::max(end, t.end_s);
  EXPECT_DOUBLE_EQ(end, list_schedule_makespan(d, 2));
}

TEST(ListSchedule, WorkConservingNoIdleBeforeLastStart) {
  // Greedy list scheduling never leaves a core idle while tasks wait.
  const std::vector<double> d = {2, 2, 2, 2, 2, 2, 2};
  const auto schedule = list_schedule(d, 3);
  for (const auto& t : schedule) {
    // With equal durations on 3 cores, task t starts at floor(t/3)*2.
    EXPECT_DOUBLE_EQ(t.start_s, static_cast<double>(t.task / 3) * 2.0);
  }
}

TEST(Gantt, RendersOneRowPerCore) {
  const std::vector<double> d = {1, 1, 2};
  const auto schedule = list_schedule(d, 2);
  const std::string gantt = render_gantt(schedule, 2, 40);
  EXPECT_EQ(std::count(gantt.begin(), gantt.end(), '\n'), 2);
  EXPECT_NE(gantt.find("core   0 |"), std::string::npos);
  EXPECT_NE(gantt.find('0'), std::string::npos);
  EXPECT_NE(gantt.find('2'), std::string::npos);
}

TEST(Gantt, EmptyScheduleEmptyChart) {
  EXPECT_TRUE(render_gantt({}, 4, 40).empty());
}

// Every simulated time of one fixed job per engine, bit for bit: the prices,
// the straggler draws, the hang and timeout terms and the summation order
// all reach these values, so a change to any of them fails here. Spark runs
// 4 executors x 1 core at one host thread under the default seeded
// stragglers: clean, under spark.task.hang with the default 4 attempts
// (a hang on an attempt that may retry times out), and under the same plan
// with 1 attempt (every hang stalls for its full length).
TEST(SimClock, GoldenTimesPerEngine) {
  Rng rng(17);
  synth::GaussianMixtureConfig data;
  data.n = 1200;
  data.dim = 2;
  data.clusters = 4;
  data.sigma = 0.5;
  data.noise_fraction = 0.05;
  data.box_side = 60.0;
  const PointSet ps = synth::gaussian_clusters(data, rng);
  const dbscan::DbscanParams params{1.0, 5};

  u32 timeouts = 0;
  u32 straggled = 0;
  auto spark_times = [&](u32 max_task_attempts) {
    ClusterConfig ccfg;
    ccfg.executors = 4;
    ccfg.cores_per_executor = 1;
    ccfg.host_threads = 1;
    ccfg.max_task_attempts = max_task_attempts;
    SparkContext ctx(ccfg);
    dbscan::SparkDbscanConfig cfg;
    cfg.params = params;
    cfg.partitions = 8;
    dbscan::SparkDbscan dbscan(ctx, cfg);
    const dbscan::SparkDbscanReport r = dbscan.run(ps);
    timeouts = ctx.last_job().timeouts;
    straggled = 0;
    for (const TaskMetrics& t : ctx.last_job().tasks) straggled += t.straggled;
    return bits({r.sim_read_s, r.sim_tree_s, r.sim_broadcast_s,
                 r.sim_executor_s, r.sim_executor_total_s, r.sim_collect_s,
                 r.sim_merge_s, r.sim_driver_s()});
  };

  const std::vector<u64> clean = spark_times(4);
  EXPECT_GT(straggled, 0u);  // the seeded straggler draw reaches a task
  const std::vector<u64> kClean = {
      0x3f16052502eec7caull, 0x3f2838dbe9a0422bull, 0x3f5a1d871348f6d9ull,
      0x3f905cfd4246b2a8ull, 0x3fb045582e25adb3ull, 0x3f45e48798540e0eull,
      0x3f4333a3f16156b2ull, 0x3f69888552c34efeull};
  EXPECT_EQ(clean, kClean) << hex(clean);

#ifdef SDB_FAULT_INJECTION
  const std::string kHangs = "seed=5;spark.task.hang:p=0.7,budget=8";
  {
    const fault::ScopedFaultPlan chaos(kHangs);
    const std::vector<u64> timed_out = spark_times(4);
    EXPECT_EQ(timeouts, 7u);  // and one hang on a last attempt stalls
    const std::vector<u64> kTimedOut = {
        0x3f16052502eec7caull, 0x3f2838dbe9a0422bull, 0x3f5a1d871348f6d9ull,
        0x404e04116ba5f573ull, 0x405906578b2323c8ull, 0x3f45e48798540e0eull,
        0x3f4333a3f16156b2ull, 0x3f69888552c34efeull};
    EXPECT_EQ(timed_out, kTimedOut) << hex(timed_out);
  }
  {
    const fault::ScopedFaultPlan chaos(kHangs);
    const std::vector<u64> stalled = spark_times(1);
    EXPECT_EQ(timeouts, 0u);
    const std::vector<u64> kStalled = {
        0x3f16052502eec7caull, 0x3f2838dbe9a0422bull, 0x3f5a1d871348f6d9ull,
        0x403e0636fa5001a9ull, 0x405e0411560b896bull, 0x3f45e48798540e0eull,
        0x3f4333a3f16156b2ull, 0x3f69888552c34efeull};
    EXPECT_EQ(stalled, kStalled) << hex(stalled);
  }
#endif  // SDB_FAULT_INJECTION

  dbscan::MRDbscanConfig mr;
  mr.params = params;
  mr.mr.work_dir = (std::filesystem::temp_directory_path() /
                    ("sdb_sim_golden_" + std::to_string(::getpid())))
                       .string();
  const dbscan::MRDbscanReport m = dbscan::mr_dbscan(ps, mr);
  std::filesystem::remove_all(mr.mr.work_dir);
  const std::vector<u64> mr_times =
      bits({m.job.sim_total_s, m.job.map.sim_makespan_s,
            m.job.reduce.sim_makespan_s, m.job.shuffle_s});
  const std::vector<u64> kMr = {
      0x400670b63d46e5f6ull, 0x3fc3b870ca4283deull, 0x3fc33d30c931c8e1ull,
      0x3f45c240fa12a292ull};
  EXPECT_EQ(mr_times, kMr) << hex(mr_times);
}

TEST(StragglerModel, DefaultsSane) {
  StragglerModel s;
  EXPECT_GE(s.fraction, 0.0);
  EXPECT_LE(s.fraction, 1.0);
  EXPECT_GE(s.max_extra, 0.0);
}

}  // namespace
}  // namespace sdb::minispark
