// Fixed-size thread pool used by the minispark executor backend, and
// parallel_for, the driver's one-task-per-index helper on top of it.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "util/common.hpp"
#include "util/counters.hpp"

namespace sdb {

/// The one thread-count rule of the `threads` knobs (kd-tree build, kNN
/// graph build, minispark host threads): 0 means the host's hardware
/// concurrency (at least 1), and the result is at most 16. Callers that fall
/// back to one thread below a minimum input size apply it themselves.
unsigned resolve_threads(unsigned requested);

/// A classic fixed-size worker pool. Tasks are std::function<void()>;
/// submit() returns a future for completion/exception propagation.
///
/// The pool is used by minispark's threaded executor backend. On a
/// single-core host it still provides correct concurrent semantics (the
/// simulated-clock backend is what produces the paper's scaling curves).
class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Never blocks. Throws std::runtime_error if the pool is
  /// shutting down.
  std::future<void> submit(std::function<void()> fn);

  /// Number of worker threads.
  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Block until every task submitted so far has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  u64 active_ = 0;
  bool stop_ = false;
};

/// Wait for every future, then return the exception of the first one (in
/// vector order) that failed, or null. Tasks that use their submitter's
/// frame must all finish before it unwinds, whichever of them threw.
std::exception_ptr wait_all(std::vector<std::future<void>>& futures);

/// Run fn(i) for every i in [0, n), one task per index, on at most
/// `threads` threads. At one thread the calls run inline in index order, and
/// an exception leaves from the call that threw it. Otherwise a fresh pool
/// runs the tasks; every task finishes before the exception of the lowest
/// failing index is rethrown (SparkContext::foreach_partition's rule), and
/// the work counters each task charged reach the caller's scope in index
/// order.
///
/// Tasks should not allocate anything large: a pool thread that allocates
/// gets a malloc arena of its own, and the arena keeps its pages.
template <typename Fn>
void parallel_for(size_t n, unsigned threads, Fn&& fn) {
  if (threads <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<WorkCounters> charged(n);
  ThreadPool pool(static_cast<unsigned>(std::min<size_t>(threads, n)));
  std::vector<std::future<void>> done;
  done.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    done.push_back(pool.submit([&fn, &charged, i] {
      const ScopedCounters scope(&charged[i]);
      fn(i);
    }));
  }
  const std::exception_ptr error = wait_all(done);
  for (const WorkCounters& wc : charged) counters::add(wc);
  if (error) std::rethrow_exception(error);
}

}  // namespace sdb
