// RegistryWal — write-ahead log + snapshot compaction for ModelRegistry.
//
// The serving layer's registry is the durability boundary of the whole
// online subsystem: a process death used to lose every mutation since
// construction. The WAL makes the *committed epoch* durable:
//
//   * every mutation appends one checksummed record BEFORE it is applied
//     (write-ahead ordering), and every snapshot publication appends a
//     kPublish record carrying the published epoch — the commit marker;
//   * a restarted registry replays the log only through the LAST kPublish
//     record: mutations after it were never part of a published snapshot,
//     so they are uncommitted and are truncated, and the registry
//     republishes exactly the last committed epoch;
//   * a crash mid-append leaves a torn record at the tail; recovery scans
//     record-by-record, stops at the first record that fails its length or
//     FNV-1a checksum, and truncates the file there — a torn tail can
//     never be read back as data (tests/test_registry_wal.cpp truncates at
//     every byte offset of the final record to prove it).
//
// Record layout, one util/serialize.hpp frame per record:
//
//   u32 len | payload (len bytes) | u64 fnv1a(payload)
//
// where payload = u32 type | body. Types: kInsert (body = u32 dim + dim
// f64 coords), kRemove (body = i64 point id), kPublish (body = u64 epoch).
// A snapshot file is a sealed buffer: magic | epoch | state | u64 fnv1a.
//
// Compaction is generation-based to dodge the classic snapshot/WAL
// double-replay hazard: generation G consists of `snapshot_<G>` (full
// registry state, checksummed) plus `wal_<G>.log` (mutations since).
// compact() writes snapshot_<G+1> via tmp+rename, then starts an empty
// wal_<G+1>.log, then deletes generation G. A crash anywhere in that
// sequence leaves either G fully intact or G+1 fully recoverable — the
// opener picks the highest generation with a valid snapshot and garbage-
// collects the rest.
//
// Crash points (fault/injection.hpp): `wal.crash.mid_append` (torn record
// hits disk, then death), `wal.crash.before_append`, `wal.crash.after_append`,
// `wal.crash.snapshot_rename` (between staging and committing a snapshot).
//
// Replication (src/replica) treats this log as the shipping substrate: a
// position in the stream is (generation, record seq), `snapshot_epoch()` /
// `last_committed_epoch()` give a follower the epoch handshake it needs to
// catch up from a compacted snapshot instead of generation 0, and
// `reset_generation()` lets a follower force its own log to mirror the
// primary's stream coordinates after a snapshot install. An EMPTY directory
// name selects the in-memory mode: the same generation/record/snapshot
// bookkeeping with no files — the replication log of a non-durable replica.
#pragma once

#include <fstream>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace sdb::serve {

enum class WalRecordType : u32 { kInsert = 1, kRemove = 2, kPublish = 3 };

/// One decoded WAL record. Exactly one of the three payload fields is
/// meaningful, selected by `type`.
struct WalRecord {
  WalRecordType type = WalRecordType::kInsert;
  std::vector<double> coords;  ///< kInsert
  i64 point_id = 0;            ///< kRemove
  u64 epoch = 0;               ///< kPublish
};

/// Encode one record's framing-free payload (`u32 type | body`). Shared by
/// the per-record log frames here and the replication batch frames
/// (replica/wal_ship.hpp), so shipped bytes decode with the same code path
/// that validates the on-disk log.
std::vector<char> encode_wal_payload(const WalRecord& rec);
/// Decode one payload; false on any malformed body (callers treat it like a
/// checksum failure).
bool decode_wal_payload(const char* data, size_t size, WalRecord* rec);

class RegistryWal {
 public:
  /// Open `dir` (creating it if absent): locate the newest generation with
  /// a valid snapshot, garbage-collect stale generations and tmp files,
  /// and scan that generation's log — truncating the first torn record and
  /// everything after it; names without an all-digit generation are
  /// skipped. An empty `dir` selects the in-memory mode (no files touched,
  /// nothing survives the process; see file comment).
  explicit RegistryWal(std::string dir);

  /// The records recovered from the current generation's log, in append
  /// order (valid prefix only; the torn tail is already gone).
  [[nodiscard]] const std::vector<WalRecord>& records() const {
    return records_;
  }

  /// The recovered snapshot blob of the current generation, if one exists
  /// (generation 0 has none — it is the empty-state generation).
  [[nodiscard]] const std::optional<std::string>& snapshot() const {
    return snapshot_;
  }

  /// Epoch the current generation's snapshot was taken at (0 when there is
  /// no snapshot). Together with generation() this is the handshake a
  /// replication follower needs to catch up from the compacted snapshot
  /// instead of replaying from generation 0.
  [[nodiscard]] u64 snapshot_epoch() const { return snapshot_epoch_; }

  /// The last epoch this log can prove committed: the newest kPublish
  /// record, or the snapshot's epoch when no kPublish follows it (a
  /// snapshot is always taken at a publish boundary).
  [[nodiscard]] u64 last_committed_epoch() const;

  /// Records currently in the log (== the next record's seq within this
  /// generation — the shipping cursor's second coordinate).
  [[nodiscard]] u64 record_count() const { return records_.size(); }

  /// Drop every record past index `count` (exclusive), in memory AND on
  /// disk. The registry calls this after replay to discard the uncommitted
  /// suffix (mutations after the last kPublish), so a later recovery can
  /// never resurrect mutations this incarnation refused to apply.
  void truncate_to(size_t count);

  // --- append side (writer thread; internally serialized) ---
  void append_insert(std::span<const double> coords);
  void append_remove(i64 point_id);
  void append_publish(u64 epoch);

  /// Rotate to generation G+1 with `snapshot_blob` as its base state (taken
  /// at publish boundary `epoch`) and an empty log, then delete generation
  /// G. Atomic at every step (see file comment). Clears the in-memory
  /// record list — the snapshot subsumes it.
  void compact(const std::string& snapshot_blob, u64 epoch);

  /// Force this log to an arbitrary stream position: generation
  /// `generation` based on `snapshot_blob`@`epoch` (empty blob = the
  /// empty-state base), with an empty record list. Used by replication
  /// followers installing a shipped snapshot so that their own log mirrors
  /// the primary's (generation, seq) coordinates exactly. Same atomicity as
  /// compact().
  void reset_generation(u64 generation, const std::string& snapshot_blob,
                        u64 epoch);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] u64 generation() const { return generation_; }

  // --- observability ---
  /// Bytes of torn tail truncated at open.
  [[nodiscard]] u64 truncated_bytes() const { return truncated_bytes_; }
  /// Stale generations (or orphaned tmp files) deleted at open.
  [[nodiscard]] u64 collected_files() const { return collected_files_; }
  /// Records appended by this process.
  [[nodiscard]] u64 appends() const { return appends_; }

 private:
  [[nodiscard]] bool in_memory() const { return dir_.empty(); }
  [[nodiscard]] std::string log_path(u64 generation) const;
  [[nodiscard]] std::string snapshot_path(u64 generation) const;
  void open_generation();
  void scan_log();
  void append_payload(const std::vector<char>& payload);
  void reset_generation_locked(u64 generation, const std::string& blob,
                               u64 epoch);

  std::string dir_;
  std::mutex mu_;
  u64 generation_ = 0;
  u64 snapshot_epoch_ = 0;
  std::optional<std::string> snapshot_;
  std::vector<WalRecord> records_;
  /// Byte offset of the end of each valid record in the current log —
  /// record i ends at ends_[i]; truncate_to(k) resizes the file to
  /// ends_[k-1].
  std::vector<u64> ends_;
  std::ofstream out_;
  u64 truncated_bytes_ = 0;
  u64 collected_files_ = 0;
  u64 appends_ = 0;
};

}  // namespace sdb::serve
