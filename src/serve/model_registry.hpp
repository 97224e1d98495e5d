// ModelRegistry — RCU-style versioned publication of ClusterModel snapshots.
//
// The serving layer separates two worlds with very different rates:
//   * readers (classify/lookup traffic, potentially millions/sec) grab the
//     current snapshot with one atomic shared_ptr load and never wait for
//     the writer — a reader holds its snapshot alive by refcount, exactly
//     the RCU read-side critical section with shared_ptr as the grace
//     period mechanism;
//   * the writer applies inserts/removes through the exact-semantics
//     IncrementalDbscan and, every `publish_every` mutations (the epoch
//     cadence), builds a fresh immutable ClusterModel and publishes it with
//     one atomic store. Old snapshots die when the last reader drops them.
//
// The swap itself is a pointer-sized atomic operation: readers between
// epochs see either the old or the new snapshot in full, never a mix
// (tests/test_serve_registry.cpp drives this under TSan via the `sanitize`
// ctest label).
// Durability (optional): with Config::wal_dir set, every mutation is
// appended to a write-ahead log BEFORE it is applied, and every publish
// appends a commit marker carrying the new epoch (serve/registry_wal.hpp).
// A registry constructed over the same directory after a crash — even a
// SIGKILL mid-append — replays the log through the last commit marker and
// republishes exactly the last committed epoch; mutations that never made
// it into a published snapshot are truncated, not resurrected. compact()
// folds the log into a checksummed snapshot so the log stays bounded.
//
// Replication (src/replica): with Config::replicated set the registry keeps
// a WAL even without a wal_dir (the in-memory RegistryWal mode) and becomes
// shippable — `ship_from()` serves the record stream from any (generation,
// seq) cursor, falling back to a snapshot handshake when the cursor
// predates the last compaction. A Role::kFollower registry is the receive
// side: it accepts no direct writes, only `apply_replicated()` records and
// `install_replica_snapshot()`, and keeps its own WAL positioned at the
// SAME stream coordinates as the primary's — every follower log is a byte
// prefix of the primary's stream, which is what makes post-failover
// re-shipping from the promoted follower sound (see replica/replica_set.hpp
// for the proof sketch). `promote_to_primary()` flips the role in place.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "core/incremental.hpp"
#include "serve/cluster_model.hpp"
#include "serve/registry_wal.hpp"

namespace sdb::serve {

/// Which side of the replication stream a registry sits on. Standalone
/// (unreplicated) registries are primaries that never ship.
enum class RegistryRole : u32 { kPrimary = 0, kFollower = 1 };

/// One reply to a shipping-cursor read (ship_from). Either a run of records
/// resuming at the cursor, or a snapshot handshake when the cursor predates
/// the log's current generation.
struct ShipChunk {
  bool need_snapshot = false;
  u64 generation = 0;       ///< generation the reply (snapshot or records) is in
  std::string snapshot_blob;  ///< need_snapshot: base state ("" = empty base)
  u64 snapshot_epoch = 0;     ///< need_snapshot: epoch of that base state
  u64 start_seq = 0;          ///< records: seq of records.front()
  std::vector<WalRecord> records;
  u64 committed_epoch = 0;  ///< primary's published epoch at reply time
};

class ModelRegistry {
 public:
  struct Config {
    dbscan::DbscanParams params;
    /// IncrementalDbscan kd-tree rebuild threshold (see incremental.hpp).
    size_t rebuild_threshold = 256;
    /// Publish a fresh snapshot every N mutations; 0 = manual publish()
    /// only. Smaller = fresher models, more build work per mutation.
    u64 publish_every = 64;
    /// Snapshot build options (core subsampling knob).
    ClusterModel::Options model_options;
    /// Write-ahead-log directory (empty = durability off). See the class
    /// comment: committed-epoch crash recovery with torn-tail truncation.
    std::string wal_dir;
    /// Replication role (see class comment). Followers reject direct writes.
    RegistryRole role = RegistryRole::kPrimary;
    /// Keep a replication log even without wal_dir (in-memory RegistryWal),
    /// so the registry can ship its stream / re-ship after promotion.
    /// Implied by role == kFollower.
    bool replicated = false;
  };

  ModelRegistry(Config config, int dim);

  /// --- read side (wait-free w.r.t. the writer, any thread) ---
  /// The current published snapshot; never null (an empty model is
  /// published at construction).
  [[nodiscard]] std::shared_ptr<const ClusterModel> model() const {
    return current_.load(std::memory_order_acquire);
  }
  /// Epoch of the current snapshot; increments on every publish.
  [[nodiscard]] u64 epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// --- write side (internally serialized; call from any thread) ---
  /// True when the writer can accept a mutation right now. False while the
  /// writer is stalled — set_stalled(true) (ops drain, maintenance) or an
  /// injected `serve.registry.stall` fault — in which case callers should
  /// degrade gracefully: keep serving reads from the current snapshot and
  /// reject mutations with a backpressure signal instead of blocking
  /// (serve::ReplyStatus::kDegraded). Each refusal is counted.
  [[nodiscard]] bool write_available();
  void set_stalled(bool stalled) {
    stalled_.store(stalled, std::memory_order_release);
  }
  [[nodiscard]] u64 stall_rejections() const {
    return stall_rejections_.load(std::memory_order_relaxed);
  }

  /// Insert a point into the live clustering; returns its id. May publish
  /// (epoch cadence).
  PointId insert(std::span<const double> coords);
  /// Remove a point; false if the id is unknown or already removed.
  bool try_remove(PointId id);
  /// Apply one micro-epoch of mutations atomically w.r.t. readers: all
  /// inserts (in op order), then all removes (in op order) sharing one
  /// affected-region re-clustering. WAL records are appended in that same
  /// canonical order, so replay and replication reproduce ids exactly.
  /// Returns per-op outcomes aligned with `ops`; counts toward the publish
  /// cadence like individual mutations.
  std::vector<dbscan::IncrementalDbscan::BatchResult> apply_batch(
      std::span<const dbscan::IncrementalDbscan::BatchOp> ops);
  /// Insert every point of `points` (bulk bootstrap), then publish once.
  void bootstrap(const PointSet& points);
  /// Build and publish a snapshot of the current state now; returns the new
  /// epoch.
  u64 publish();

  [[nodiscard]] int dim() const { return dim_; }
  /// Publishes/mutations performed by THIS process (replayed WAL records
  /// are not re-counted; the durable quantity across restarts is epoch()).
  [[nodiscard]] u64 publishes() const;
  [[nodiscard]] u64 mutations() const;
  [[nodiscard]] size_t active_points() const;
  /// Digest of the live data-plane state (IncrementalDbscan::digest under
  /// the writer lock) — equality against a control replay proves no
  /// acknowledged write was lost or reordered.
  [[nodiscard]] u64 state_digest() const;

  /// --- runtime knobs (the streaming degradation ladder's levers) ---
  /// Raise the kd-tree rebuild threshold under pressure (defer rebuilds),
  /// restore it on recovery. Thread-safe w.r.t. the writer.
  void set_rebuild_threshold(size_t threshold);
  [[nodiscard]] size_t rebuild_threshold() const;
  /// DBSCAN++ core subsampling applied to FUTURE publishes (the data plane
  /// stays exact; only the serving snapshot approximates). Models built
  /// with fraction < 1 report degraded() — see cluster_model.hpp.
  void set_core_sample_fraction(double fraction);
  [[nodiscard]] double core_sample_fraction() const;

  /// --- replication (Config::replicated / Config::role; see class comment) ---
  [[nodiscard]] RegistryRole role() const {
    return role_.load(std::memory_order_acquire);
  }
  /// This registry's position in its replication stream: (generation, next
  /// record seq). On a primary this is the shipping frontier; on a follower
  /// it is how far the stream has been applied.
  struct StreamCursor {
    u64 generation = 0;
    u64 next_seq = 0;
  };
  [[nodiscard]] StreamCursor replication_cursor() const;
  /// Serve up to `max_records` stream records resuming at (`generation`,
  /// `seq`), or a snapshot handshake when that cursor is not servable from
  /// the current generation's log (the follower then installs the snapshot
  /// and re-requests from (chunk.generation, 0)). Requires `replicated`.
  [[nodiscard]] ShipChunk ship_from(u64 generation, u64 seq,
                                    size_t max_records) const;
  /// Follower side: append `rec` to the local stream log, then apply it.
  /// kPublish records publish a snapshot at EXACTLY the record's epoch —
  /// follower epochs are the primary's epochs, never locally invented.
  void apply_replicated(const WalRecord& rec);
  /// Follower side: replace all state with the shipped snapshot (the blob
  /// format of ship_from/compact) and reposition the local log at
  /// (`generation`, 0). Publishes the snapshot's epoch.
  void install_replica_snapshot(const std::string& blob, u64 generation);
  /// Flip a follower to primary in place (failover). Applied-but-unpublished
  /// mutations are kept — they become part of the next published epoch.
  /// Returns the epoch the new primary serves at.
  u64 promote_to_primary();

  /// --- durability (wal_dir set; aborts otherwise) ---
  /// Publish, then fold log + state into a fresh snapshot generation and
  /// start an empty log. Returns the published (= snapshotted) epoch.
  u64 compact();
  /// WAL mutation records replayed during construction.
  [[nodiscard]] u64 wal_replayed() const { return wal_replayed_; }
  /// Uncommitted/torn WAL records dropped during construction.
  [[nodiscard]] u64 wal_discarded() const { return wal_discarded_; }
  /// The underlying log (observability/tests); null when durability is off.
  [[nodiscard]] const RegistryWal* wal() const { return wal_.get(); }

 private:
  u64 publish_locked();
  /// Publish the current state at exactly `epoch`; appends a kPublish
  /// marker to the WAL only when `log_marker` (followers already appended
  /// the stream's own marker; recovery republishes without re-logging).
  u64 publish_as_locked(u64 epoch, bool log_marker);
  void maybe_publish_locked();
  void recover_locked();
  void load_snapshot_locked(const std::string& blob, u64* epoch);
  [[nodiscard]] std::string encode_snapshot_locked(u64 epoch) const;

  Config config_;
  int dim_;
  std::atomic<RegistryRole> role_{RegistryRole::kPrimary};
  mutable std::mutex writer_mu_;  // guards incremental_ and the tallies
  dbscan::IncrementalDbscan incremental_;
  std::unique_ptr<RegistryWal> wal_;
  u64 mutations_ = 0;
  u64 since_publish_ = 0;
  u64 publishes_ = 0;
  u64 wal_replayed_ = 0;
  u64 wal_discarded_ = 0;
  std::atomic<std::shared_ptr<const ClusterModel>> current_;
  std::atomic<u64> epoch_{0};
  std::atomic<bool> stalled_{false};
  std::atomic<u64> stall_rejections_{0};
};

}  // namespace sdb::serve
