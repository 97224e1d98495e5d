// IngestPipeline — streaming ingest with bounded micro-epoch batching and an
// explicit overload-degradation ladder.
//
// Producers submit inserts/removes into a bounded queue; a single batcher
// thread groups them into micro-epochs (flushed at `batch_max` ops or after
// `batch_deadline_us`, whichever first) and applies each micro-epoch through
// ModelRegistry::apply_batch — one affected-region re-clustering per epoch
// instead of one per op — then publishes through the registry's RCU path.
// Readers never touch the pipeline: they keep loading the last published
// snapshot, whatever the write side is going through.
//
// The degradation ladder. Overload is measured as a normalized pressure
// score: max(queue_depth / queue_capacity, unpublished_ops / lag_capacity).
// Hysteresis watermarks (enter > exit, kWatermarks) map pressure onto four
// rungs. The watermarks and each rung's knob actions are constants:
//
//   kHealthy   — exact incremental updates, publish every micro-epoch.
//   kPressured — (enter 0.50, exit 0.20) coalesce larger micro-epochs
//                (batch cap x kPressuredBatchFactor = 4), stretch the
//                publish cadence to every kPressuredPublishEvery = 4 epochs,
//                and DEFER kd-tree rebuilds (registry rebuild_threshold x
//                Config::deferred_rebuild_factor = 8). Updates stay exact.
//   kDegraded  — (0.75, 0.40) additionally publish DBSCAN++-subsampled
//                snapshots (core_sample_fraction =
//                Config::degraded_core_fraction = 0.5): classify may
//                misreport eps-boundary points as noise, bounded by the
//                retained-core fraction; models report degraded() and
//                QueryEngine surfaces Reply::degraded_model. The data plane
//                stays exact — only the serving snapshot approximates.
//   kShedding  — (0.95, 0.60) reject new writes with a retry-after hint
//                (reads keep being served from the last published epoch).
//                Nothing already acknowledged is ever shed.
//
// Escalation jumps straight to whatever rung the pressure demands (evaluated
// at every submit and after every micro-epoch, walking each edge so knob
// actions stay consistent); recovery steps down one rung per evaluation —
// or all the way to kHealthy once the queue is empty and the lag is zero —
// undoing each rung's knobs on exit (threshold restored, fraction back to
// 1.0). Every transition increments counters and emits a structured
// LadderTransition event.
//
// Acknowledgements: `on_ack` fires on the batcher thread once per submitted
// op, in CANONICAL APPLY ORDER (a micro-epoch's inserts in op order, then
// its removes), carrying the op, its micro-epoch seq, the assigned id and
// the applied/dropped outcome. Replaying the acked ops of each micro-epoch
// through IncrementalDbscan::apply_batch therefore reproduces the
// registry's data-plane state bit-exactly (ModelRegistry::state_digest) —
// the zero-lost-acknowledged-writes proof the chaos grid runs.
//
// Fault sites (chaos; see fault/injection.hpp):
//   stream.queue.stall   — bounded batcher stall (`stall_micros`) before a
//                          micro-epoch forms; queue depth builds.
//   stream.batch.drop    — NACK a whole micro-epoch BEFORE application;
//                          every op in it acks applied=false/dropped=true so
//                          producers resubmit. Acknowledged (applied) writes
//                          are never dropped.
//   stream.publish.delay — skip a due publish; epoch lag grows until the
//                          ladder reacts or the plan lifts.
//
// The registry should be configured with publish_every = 0: the pipeline
// owns the epoch cadence (a registry-side cadence is harmless but fights
// the ladder's stretched-publish rung).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/model_registry.hpp"

namespace sdb::stream {

enum class LadderRung : u32 {
  kHealthy = 0,
  kPressured = 1,
  kDegraded = 2,
  kShedding = 3,
};
inline constexpr size_t kLadderRungs = 4;
[[nodiscard]] const char* rung_name(LadderRung rung);

/// One ladder transition (always a single edge; multi-rung moves emit one
/// event per edge), in decision order.
struct LadderTransition {
  LadderRung from = LadderRung::kHealthy;
  LadderRung to = LadderRung::kHealthy;
  u64 seq = 0;         ///< 1-based transition sequence number
  u64 batch_seq = 0;   ///< micro-epoch counter at decision time
  size_t queue_depth = 0;
  u64 lag = 0;         ///< unpublished applied ops at decision time
  double pressure = 0.0;  ///< the normalized score that drove the decision
};

/// Outcome of a submit. Rejections (shedding rung or hard queue-full) carry
/// a retry-after backpressure hint; reads are unaffected either way.
struct SubmitResult {
  bool accepted = false;
  u64 ticket = 0;               ///< correlates with Ack::ticket
  double retry_after_ms = 0.0;  ///< backpressure hint when rejected
  LadderRung rung = LadderRung::kHealthy;  ///< rung at decision time
};

/// Per-op acknowledgement, fired on the batcher thread in canonical apply
/// order (see the class comment).
struct Ack {
  u64 ticket = 0;
  u64 batch_seq = 0;     ///< 1-based micro-epoch the op rode in
  bool applied = false;  ///< false: invalid remove, or micro-epoch NACKed
  bool dropped = false;  ///< whole-epoch NACK (stream.batch.drop): resubmit
  dbscan::IncrementalDbscan::BatchOp op;  ///< the op, for replay harnesses
  PointId id = -1;       ///< insert: assigned id; remove: echo of target
  u64 epoch = 0;         ///< registry epoch observed after the micro-epoch
};

struct StreamMetrics {
  u64 submitted = 0;
  u64 accepted = 0;
  u64 shed = 0;             ///< rejected (shedding rung or queue full)
  u64 acked = 0;            ///< ops acknowledged applied
  u64 nacked = 0;           ///< ops acknowledged not-applied
  u64 batches = 0;          ///< micro-epochs applied
  u64 batched_ops = 0;      ///< ops that entered a micro-epoch
  u64 dropped_batches = 0;  ///< stream.batch.drop fires
  u64 publishes = 0;        ///< epochs published by the pipeline
  u64 publish_skips = 0;    ///< stream.publish.delay fires
  u64 stalls = 0;           ///< stream.queue.stall fires
  u64 transitions_up = 0;
  u64 transitions_down = 0;
  std::array<u64, kLadderRungs> rung_entries{};  ///< entries into each rung
  size_t queue_depth = 0;
  u64 max_queue_depth = 0;
  u64 lag = 0;  ///< applied ops not yet in a published epoch
  LadderRung rung = LadderRung::kHealthy;
};

class IngestPipeline {
 public:
  struct Config {
    size_t queue_capacity = 4096;
    /// Micro-epoch flush thresholds (healthy rung).
    size_t batch_max = 256;
    u64 batch_deadline_us = 2000;
    /// Unpublished-op count that maps to pressure 1.0 (the epoch-lag
    /// watermark scale).
    double lag_capacity = 4096.0;

    /// The registry knobs the pressured and degraded rungs set (see the
    /// class comment): constants, not settings.
    static constexpr size_t deferred_rebuild_factor = 8;
    static constexpr double degraded_core_fraction = 0.5;
    static_assert(degraded_core_fraction > 0.0 && degraded_core_fraction <= 1.0);

    /// Retry-after hint returned on shed submits.
    double retry_after_ms = 5.0;
    /// Bounded batcher stall when stream.queue.stall fires.
    u64 stall_micros = 2000;

    /// Fired on the batcher thread, no pipeline lock held; may call back
    /// into the pipeline's metrics but must not submit (deadlock-free but
    /// unbounded recursion risk under shedding retries).
    std::function<void(const Ack&)> on_ack;
    /// Fired on the DECIDING thread with the pipeline lock held: must not
    /// call back into the pipeline.
    std::function<void(const LadderTransition&)> on_transition;
  };

  IngestPipeline(serve::ModelRegistry& registry, Config config);
  ~IngestPipeline();  ///< stop()

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Submit one write. O(1): either enqueued (acknowledged later via
  /// on_ack) or rejected with backpressure. Any thread.
  SubmitResult submit_insert(std::span<const double> coords);
  SubmitResult submit_remove(PointId id);

  /// Block until every queued op has been applied, publish any trailing
  /// lag (unconditionally — drain is the explicit barrier, fault plans do
  /// not gate it), and let the ladder re-evaluate (an idle pipeline walks
  /// back down to kHealthy).
  void drain();
  /// Drain, then join the batcher. Idempotent; further submits are shed.
  void stop();

  [[nodiscard]] LadderRung rung() const {
    return rung_.load(std::memory_order_acquire);
  }
  [[nodiscard]] StreamMetrics metrics() const;
  /// The structured transition event log, in decision order.
  [[nodiscard]] std::vector<LadderTransition> transitions() const;

 private:
  /// Ladder watermarks on the normalized pressure score, indexed by rung:
  /// enter when pressure >= enter; step down when pressure <= exit.
  struct Watermark {
    double enter;
    double exit;
  };
  static constexpr std::array<Watermark, kLadderRungs> kWatermarks = {{
      {0.0, 0.0},    // kHealthy
      {0.50, 0.20},  // kPressured
      {0.75, 0.40},  // kDegraded
      {0.95, 0.60},  // kShedding
  }};
  static_assert(kWatermarks[1].enter <= kWatermarks[2].enter &&
                    kWatermarks[2].enter <= kWatermarks[3].enter,
                "enter watermarks must be non-decreasing up the ladder");
  static_assert(kWatermarks[1].exit < kWatermarks[1].enter &&
                    kWatermarks[2].exit < kWatermarks[2].enter &&
                    kWatermarks[3].exit < kWatermarks[3].enter,
                "exit watermarks must sit below their enter watermarks");
  /// The pressured rung's batch-cap multiplier and publish cadence (the
  /// healthy rung publishes every micro-epoch).
  static constexpr size_t kPressuredBatchFactor = 4;
  static constexpr u64 kPressuredPublishEvery = 4;

  struct Pending {
    dbscan::IncrementalDbscan::BatchOp op;
    u64 ticket = 0;
  };
  using Clock = std::chrono::steady_clock;

  SubmitResult submit(dbscan::IncrementalDbscan::BatchOp op);
  void batcher_main();
  /// Apply one micro-epoch (no pipeline lock held): fault gate, registry
  /// apply, acks in canonical order, publish cadence.
  void apply_one_batch(u64 seq, std::vector<Pending> batch);
  void publish_now();

  [[nodiscard]] double pressure_locked() const;
  /// Jump up to whatever rung pressure demands, one edge at a time.
  void maybe_escalate_locked(u64 batch_seq);
  /// Step down one rung — or all the way to kHealthy when fully idle.
  void maybe_recover_locked(u64 batch_seq);
  void record_transition_locked(LadderRung from, LadderRung to, u64 batch_seq,
                                double pressure);
  /// Batch cap / publish cadence for the current rung (reads the atomic
  /// rung; no lock needed).
  [[nodiscard]] size_t batch_cap() const;
  [[nodiscard]] u64 publish_cadence() const;

  serve::ModelRegistry& registry_;
  Config config_;
  const size_t base_rebuild_threshold_;

  std::atomic<LadderRung> rung_{LadderRung::kHealthy};
  std::atomic<u64> lag_{0};  ///< applied ops not yet published

  // Counters (relaxed; exact only at quiescence).
  std::atomic<u64> submitted_{0};
  std::atomic<u64> accepted_{0};
  std::atomic<u64> shed_{0};
  std::atomic<u64> acked_{0};
  std::atomic<u64> nacked_{0};
  std::atomic<u64> batches_{0};
  std::atomic<u64> batched_ops_{0};
  std::atomic<u64> dropped_batches_{0};
  std::atomic<u64> publishes_{0};
  std::atomic<u64> publish_skips_{0};
  std::atomic<u64> stalls_{0};
  std::atomic<u64> transitions_up_{0};
  std::atomic<u64> transitions_down_{0};
  std::array<std::atomic<u64>, kLadderRungs> rung_entries_{};
  std::atomic<u64> max_queue_depth_{0};

  mutable std::mutex mu_;          // queue, ladder decisions, transition log
  std::condition_variable cv_;     // batcher wakeups
  std::condition_variable cv_drained_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  bool drain_requested_ = false;
  bool applying_ = false;
  u64 next_ticket_ = 1;
  u64 batch_seq_ = 0;
  u64 batches_since_publish_ = 0;  // batcher thread only
  u64 transition_seq_ = 0;
  std::vector<LadderTransition> transitions_;

  std::thread batcher_;  // last member: joined before the rest dies
};

}  // namespace sdb::stream
