// Spark's two shared-variable kinds, as used by the paper (Section IV.B):
//
//   * Broadcast<T> — read-only, shipped once per executor, not per task.
//     The paper broadcasts eps, minpts, the partition map, and — crucially —
//     the kd-tree over the whole dataset, which is what lets executors
//     compute globally-exact neighborhoods with no peer communication.
//   * Accumulator<T> — write-only from executors, merged associatively in
//     the driver. The paper uses one to bring every executor's partial
//     clusters back to the driver at the end of the foreach.
//
// In-process, values are shared by pointer (zero-copy); the *declared* byte
// size feeds the network cost model so the simulated clock prices the
// shipment the way a real cluster would.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <set>

#include "fault/injection.hpp"
#include "util/common.hpp"
#include "util/counters.hpp"

namespace sdb::minispark {

template <typename T>
class Broadcast {
 public:
  Broadcast() = default;
  Broadcast(std::shared_ptr<const T> value, u64 bytes)
      : value_(std::move(value)), bytes_(bytes) {}

  [[nodiscard]] const T& value() const {
    SDB_CHECK(value_ != nullptr, "empty Broadcast dereferenced");
    return *value_;
  }
  [[nodiscard]] u64 bytes() const { return bytes_; }
  [[nodiscard]] bool valid() const { return value_ != nullptr; }

 private:
  std::shared_ptr<const T> value_;
  u64 bytes_ = 0;
};

/// Accumulator with a user merge operation. add_once() may be called from
/// any task thread; value() must only be read in the driver after the job
/// completes (Spark's contract — enforced here only by convention, verified
/// by the scheduler which snapshots after the barrier).
template <typename T>
class Accumulator {
 public:
  using Merge = std::function<void(T& into, T&& delta)>;

  Accumulator(T zero, Merge merge)
      : value_(std::move(zero)), merge_(std::move(merge)) {}

  /// Fold `delta` into the accumulator unless an update tagged `tag` was
  /// already applied: at most one update per tag is ever applied, no matter
  /// how many task attempts or speculative duplicates deliver it. Tag with
  /// the task/partition id to make re-execution and duplicate execution
  /// exact — Spark's own accumulator dedup for actions.
  ///
  /// `bytes` is the serialized size of the delta, charged to the calling
  /// task's network counter (accumulator updates ride the task-completion
  /// message in Spark). A dropped duplicate still pays its bytes (the
  /// message was shipped, then ignored).
  ///
  /// Fault site `spark.acc.lost`: the update message is dropped in flight —
  /// the delta is NOT applied and fault::InjectedFault propagates to the
  /// task runner, which treats the task attempt as failed and re-executes
  /// it (the update rides the task-completion message, so a lost update IS
  /// a failed task from the driver's point of view).
  void add_once(u64 tag, T delta, u64 bytes) {
    if (SDB_INJECT("spark.acc.lost")) {
      {
        const std::scoped_lock lock(mutex_);
        ++lost_updates_;
      }
      throw fault::InjectedFault("spark.acc.lost");
    }
    counters::net_bytes(bytes);
    const std::scoped_lock lock(mutex_);
    if (!applied_tags_.insert(tag).second) {
      ++duplicates_ignored_;
      return;
    }
    merge_(value_, std::move(delta));
    total_bytes_ += bytes;
    ++updates_;
  }

  /// Scope the add_once dedup tags to one job. Entering a different scope
  /// clears the tags recorded under the previous one, so the tag set is
  /// bounded by a single job's partition count instead of growing across
  /// every job (resumed or otherwise) that reuses this accumulator.
  void begin_job(u64 job_fingerprint) {
    const std::scoped_lock lock(mutex_);
    if (job_scope_ != job_fingerprint) {
      applied_tags_.clear();
      job_scope_ = job_fingerprint;
    }
  }

  /// The job's result has been consumed by the driver: drop the dedup tags
  /// (late duplicate deliveries of a committed job are impossible — the
  /// barrier already passed).
  void commit_job() {
    const std::scoped_lock lock(mutex_);
    applied_tags_.clear();
  }

  /// Currently-live dedup tags (observability for the scoping contract).
  [[nodiscard]] size_t pending_tags() const {
    const std::scoped_lock lock(mutex_);
    return applied_tags_.size();
  }

  /// Driver-side read.
  [[nodiscard]] const T& value() const { return value_; }
  [[nodiscard]] u64 total_bytes() const { return total_bytes_; }
  [[nodiscard]] u64 updates() const { return updates_; }
  /// Updates dropped by the `spark.acc.lost` fault site.
  [[nodiscard]] u64 lost_updates() const {
    const std::scoped_lock lock(mutex_);
    return lost_updates_;
  }
  /// Tagged updates ignored because their tag was already applied.
  [[nodiscard]] u64 duplicates_ignored() const {
    const std::scoped_lock lock(mutex_);
    return duplicates_ignored_;
  }

 private:
  T value_;
  Merge merge_;
  mutable std::mutex mutex_;
  std::set<u64> applied_tags_;
  u64 job_scope_ = 0;
  u64 total_bytes_ = 0;
  u64 updates_ = 0;
  u64 lost_updates_ = 0;
  u64 duplicates_ignored_ = 0;
};

}  // namespace sdb::minispark
