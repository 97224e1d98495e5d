// Fixed-size thread pool used by the minispark executor backend.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "util/common.hpp"

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

}  // namespace sdb
