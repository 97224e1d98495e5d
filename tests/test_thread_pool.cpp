#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/counters.hpp"

namespace sdb {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  auto f = pool.submit([] {});
  f.get();
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&done] {
      // A little real work.
      volatile double x = 0;
      for (int j = 0; j < 10000; ++j) x = x + j;
      ++done;
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPool, ManySubmittersOneConsumerOrderIndependence) {
  ThreadPool pool(3);
  std::atomic<u64> sum{0};
  std::vector<std::future<void>> futures;
  for (u64 i = 1; i <= 1000; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 1000u * 1001u / 2);
}

TEST(ThreadPool, DestructorJoinsCleanly) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&count] { ++count; });
    pool.wait_idle();
  }  // destructor must join without deadlock
  EXPECT_EQ(count.load(), 50);
}

TEST(ParallelFor, OneThreadRunsInlineInIndexOrder) {
  std::vector<size_t> order;
  parallel_for(5, 1, [&order](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  // An exception leaves from the call that threw it: no later index runs.
  order.clear();
  EXPECT_THROW(parallel_for(5, 1,
                            [&order](size_t i) {
                              order.push_back(i);
                              if (i == 2) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2}));
}

TEST(ParallelFor, EveryTaskFinishesBeforeTheLowestIndexErrorEscapes) {
  constexpr size_t kTasks = 64;
  std::vector<int> ran(kTasks, 0);
  WorkCounters wc;
  std::string error;
  {
    ScopedCounters scope(&wc);
    try {
      parallel_for(kTasks, 4, [&ran](size_t i) {
        counters::bytes_read(i);
        ran[i] = 1;
        if (i == 9 || i == 40) throw std::runtime_error(std::to_string(i));
      });
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
  }
  EXPECT_EQ(error, "9");
  EXPECT_EQ(static_cast<size_t>(std::count(ran.begin(), ran.end(), 1)),
            kTasks);
  // Every task's counter charge reached the caller's scope, failed or not.
  EXPECT_EQ(wc.bytes_read, kTasks * (kTasks - 1) / 2);
}

}  // namespace
}  // namespace sdb
