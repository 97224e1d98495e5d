#include "mapreduce/mr_engine.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <mutex>
#include <sstream>

#include "util/serialize.hpp"

namespace sdb::mapreduce {
namespace {

namespace fs = std::filesystem;

class MREngineTest : public ::testing::Test {
 protected:
  MREngineTest() {
    // Per-process work dir: `ctest -j` runs each case as its own process.
    config_.work_dir =
        (fs::temp_directory_path() /
         ("sdb_mr_test_p" + std::to_string(::getpid())))
            .string();
    fs::remove_all(config_.work_dir);
    config_.cores = 2;
    config_.job_startup_s = 0.5;
    config_.task_overhead_s = 0.05;
  }
  ~MREngineTest() override { fs::remove_all(config_.work_dir); }
  MRConfig config_;
};

TEST_F(MREngineTest, WordCount) {
  config_.reduce_tasks = 3;
  MRJob job(
      config_, "wordcount",
      [](u32, const std::string& split, const MRJob::Emit& emit) {
        std::istringstream is(split);
        std::string word;
        while (is >> word) emit(word, "1");
      },
      [](const std::string& key, std::vector<std::string>& values,
         const MRJob::Emit& emit) {
        emit(key, std::to_string(values.size()));
      });
  const auto out = job.run({"a b a", "b c b", "a"});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].key, "a");
  EXPECT_EQ(out[0].value, "3");
  EXPECT_EQ(out[1].key, "b");
  EXPECT_EQ(out[1].value, "3");
  EXPECT_EQ(out[2].key, "c");
  EXPECT_EQ(out[2].value, "1");
}

TEST_F(MREngineTest, HugeSpillPairCountDiesOnTheCheck) {
  // Map tasks run in order, so the second task's mapper finds the first
  // task's spills on disk. It overwrites them with a bare pair count of
  // 2^60: the reducer must reject the count against the file's bytes, not
  // try to reserve room for it.
  MRJob job(
      config_, "hugecount",
      [this](u32 m, const std::string&, const MRJob::Emit& emit) {
        if (m == 1) {
          for (const auto& e : fs::directory_iterator(config_.work_dir)) {
            if (e.path().extension() != ".spill") continue;
            BinaryWriter w;
            w.write_u64(u64{1} << 60);
            write_file(e.path().string(), w.buffer());
          }
        }
        emit("k", "v");
      },
      [](const std::string& key, std::vector<std::string>&,
         const MRJob::Emit& emit) { emit(key, "1"); });
  EXPECT_DEATH((void)job.run({"a", "b"}), "corrupt spill");
}

TEST_F(MREngineTest, AllValuesForKeyGroupedOnce) {
  config_.reduce_tasks = 4;
  std::mutex mutex;
  std::vector<std::string> reduced_keys;
  MRJob job(
      config_, "grouping",
      [](u32 task, const std::string&, const MRJob::Emit& emit) {
        for (int i = 0; i < 5; ++i) {
          emit("key" + std::to_string(i), std::to_string(task));
        }
      },
      [&](const std::string& key, std::vector<std::string>& values,
          const MRJob::Emit& emit) {
        const std::scoped_lock lock(mutex);
        reduced_keys.push_back(key);
        EXPECT_EQ(values.size(), 3u);  // 3 map tasks each emitted the key
        emit(key, "ok");
      });
  job.run({"s0", "s1", "s2"});
  std::sort(reduced_keys.begin(), reduced_keys.end());
  EXPECT_EQ(reduced_keys.size(), 5u);
  EXPECT_EQ(std::adjacent_find(reduced_keys.begin(), reduced_keys.end()),
            reduced_keys.end());
}

TEST_F(MREngineTest, BinaryValuesSurviveSpill) {
  // Values with embedded NULs and newlines must round-trip through the real
  // spill files.
  const std::string binary("\x00\x01\xff\n\r\x7f", 6);
  MRJob job(
      config_, "binary",
      [&](u32, const std::string&, const MRJob::Emit& emit) {
        emit("k", binary);
      },
      [](const std::string& key, std::vector<std::string>& values,
         const MRJob::Emit& emit) { emit(key, values[0]); });
  const auto out = job.run({"x"});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, binary);
}

TEST_F(MREngineTest, MetricsAccountPhases) {
  MRJob job(
      config_, "metrics",
      [](u32, const std::string&, const MRJob::Emit& emit) {
        counters::distance_evals(100000);
        emit("k", std::string(1000, 'v'));
      },
      [](const std::string& key, std::vector<std::string>& values,
         const MRJob::Emit& emit) { emit(key, std::to_string(values.size())); });
  job.run({"a", "b", "c", "d"});
  const MRJobMetrics& m = job.metrics();
  EXPECT_EQ(m.map.tasks, 4u);
  EXPECT_EQ(m.reduce.tasks, 1u);
  EXPECT_GT(m.map.sim_makespan_s, 0.0);
  EXPECT_GE(m.map.sim_total_s, m.map.sim_makespan_s);
  EXPECT_GT(m.spill_bytes, 4000u);      // four 1000-byte values + framing
  EXPECT_GT(m.shuffle_bytes, 4000u);
  EXPECT_GT(m.sim_total_s, config_.job_startup_s);
}

TEST_F(MREngineTest, SpillFilesCleanedUp) {
  MRJob job(
      config_, "cleanup",
      [](u32, const std::string&, const MRJob::Emit& emit) { emit("k", "v"); },
      [](const std::string& key, std::vector<std::string>&,
         const MRJob::Emit& emit) { emit(key, "done"); });
  job.run({"a", "b"});
  size_t files = 0;
  for (const auto& e : fs::directory_iterator(config_.work_dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 0u);
}

TEST_F(MREngineTest, EmptyMapOutput) {
  MRJob job(
      config_, "empty",
      [](u32, const std::string&, const MRJob::Emit&) {},
      [](const std::string&, std::vector<std::string>&, const MRJob::Emit&) {
        FAIL() << "reducer must not run with no keys";
      });
  const auto out = job.run({"a", "b"});
  EXPECT_TRUE(out.empty());
}

TEST_F(MREngineTest, StartupCostDominatesSmallJobs) {
  // The Figure 7 mechanism: for tiny inputs, MR pays its startup while
  // Spark-equivalent work is milliseconds.
  MRJob job(
      config_, "tiny",
      [](u32, const std::string&, const MRJob::Emit& emit) { emit("k", "1"); },
      [](const std::string& key, std::vector<std::string>&,
         const MRJob::Emit& emit) { emit(key, "1"); });
  job.run({"x"});
  EXPECT_GT(job.metrics().sim_total_s, 0.5);
}

}  // namespace
}  // namespace sdb::mapreduce
