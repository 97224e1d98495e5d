// MiniDfs — the HDFS stand-in.
//
// The paper's pipeline starts with "read an input file from HDFS and
// generate RDDs". MiniDfs reproduces the pieces that matter to that
// pipeline:
//   * files are split into fixed-size blocks stored as real files on local
//     disk (so byte volumes and read costs are physical, not modeled);
//   * a namenode-style catalog maps path -> ordered block list, and each
//     block carries simulated datanode replica locations (round-robin,
//     configurable replication factor) that a read fails over across when
//     a datanode is dead;
//   * read(path, threads) reads every block once, concurrently, into one
//     string. Blocks split records at arbitrary bytes; TextInputFormat's
//     record ownership (a record belongs to the range holding its first
//     byte) is applied by the parser, synth::from_text, over byte ranges of
//     the whole text.
//
// Failure semantics (see DESIGN.md "Failure model & fault injection"):
// transient block I/O failures — injected at the `dfs.read.fail`,
// `dfs.read.slow`, `dfs.write.torn` and `dfs.read.replica` sites — are
// recovered internally with bounded exponential-backoff retries
// (util/retry.hpp); only a fault that survives every attempt escapes as
// DfsTransientError. Whole-replica-set loss remains a hard abort, matching
// HDFS below the replication factor.
//
// Durability (DESIGN.md "Durability & recovery"): in Durability::kDurable
// mode every write is an atomic publish — blocks are staged as tmp files
// and renamed into place, then the namenode catalog is serialized to a
// checksummed manifest (manifest.tmp + rename). A process killed at any
// byte of that sequence (crash points `dfs.crash.mid_block`,
// `dfs.crash.before_publish`, `dfs.crash.manifest_rename`) leaves either
// the old committed version or the new one, never a torn mix: reopening the
// root replays the last published manifest, drops files whose blocks fail
// their checksums, and garbage-collects orphaned/tmp blocks. Reads verify
// block size + checksum against the manifest entry, so a torn block can
// never be read back as a short-but-valid file.
#pragma once

#include <atomic>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/retry.hpp"

namespace sdb::dfs {

/// A block operation that failed transiently (injected read error, torn
/// write) and exhausted its retry budget. Distinct from the hard aborts
/// (missing file, dead replica set), which keep SDB_CHECK semantics.
class DfsTransientError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct BlockInfo {
  u64 id = 0;
  u64 size = 0;                       ///< bytes in this block
  u64 checksum = 0;                   ///< FNV-1a over the block contents
  std::vector<u32> replicas;          ///< simulated datanode ids, primary
                                      ///< first; reads fail over in order
};

struct FileInfo {
  std::string path;                   ///< logical DFS path
  u64 size = 0;                       ///< total bytes
  std::vector<BlockInfo> blocks;
};

/// Whether the namenode catalog survives the process.
enum class Durability {
  kEphemeral,  ///< catalog lives in memory only (the pre-durability mode)
  kDurable,    ///< catalog published to a checksummed on-disk manifest
};

class MiniDfs {
 public:
  /// `root` is a real directory used for block storage (created if absent).
  /// `block_size` is the HDFS block size (default 1 MiB — scaled down from
  /// HDFS's 128 MiB in proportion to our scaled-down datasets).
  /// `datanodes`/`replication` drive the simulated replica placement.
  /// With Durability::kDurable, a manifest already present under `root` is
  /// recovered: its files become readable again, torn or missing blocks
  /// drop their file, and unreferenced blocks are garbage-collected.
  explicit MiniDfs(std::string root, u64 block_size = 1u << 20,
                   u32 datanodes = 8, u32 replication = 3,
                   Durability durability = Durability::kEphemeral);

  /// Create (or overwrite) a logical file with the given contents.
  const FileInfo& write(const std::string& path, const std::string& contents);

  /// True if the logical file exists.
  [[nodiscard]] bool exists(const std::string& path) const;

  /// Metadata for a file. Aborts if missing.
  [[nodiscard]] const FileInfo& stat(const std::string& path) const;

  /// Read the whole file back. Each block is read once, straight into its
  /// slice of one exact-size string, on up to `threads` threads; at one
  /// thread the blocks are read inline in block order. A block read that
  /// fails escapes only after every other block read has finished, the
  /// lowest block's error first.
  [[nodiscard]] std::string read(const std::string& path,
                                 unsigned threads = 1) const;

  /// Remove a file and its blocks.
  void remove(const std::string& path);

  /// --- datanode failure simulation (HDFS's replication story) ---
  /// Mark a simulated datanode dead: reads served by its replicas fail over
  /// to surviving replicas; a block with no live replica is unreadable
  /// (abort), exactly HDFS's behaviour below the replication factor.
  void fail_datanode(u32 node);
  void recover_datanode(u32 node);
  [[nodiscard]] bool datanode_alive(u32 node) const;
  /// Number of reads that had to skip a dead primary replica.
  [[nodiscard]] u64 failovers() const { return failovers_.load(); }

  /// --- transient-fault recovery (fault-injection observability) ---
  /// Retry policy applied to every block read/write.
  void set_io_retry(RetryPolicy policy) { io_retry_ = policy; }
  [[nodiscard]] const RetryPolicy& io_retry() const { return io_retry_; }
  /// Block operations that were retried after a transient failure.
  [[nodiscard]] u64 io_retries() const { return io_retries_.load(); }
  /// Total backoff scheduled across all retries (simulated seconds).
  [[nodiscard]] double io_backoff_s() const { return io_backoff_s_.load(); }
  /// Reads delayed by an injected slow-read fault.
  [[nodiscard]] u64 slow_reads() const { return slow_reads_.load(); }
  /// Writes that tore mid-block and were rewritten by a retry.
  [[nodiscard]] u64 torn_writes() const { return torn_writes_; }

  /// Verify every block of `path` against its stored checksum (HDFS's
  /// data-integrity scan). Returns the indices of corrupt blocks.
  [[nodiscard]] std::vector<size_t> verify(const std::string& path) const;

  [[nodiscard]] u64 block_size() const { return block_size_; }
  [[nodiscard]] u32 datanodes() const { return datanodes_; }
  [[nodiscard]] const std::string& root() const { return root_; }
  [[nodiscard]] Durability durability() const { return durability_; }

  /// --- durable-mode recovery observability ---
  /// Files recovered intact from the manifest at construction.
  [[nodiscard]] u64 recovered_files() const { return recovered_files_; }
  /// Manifested files dropped at recovery (a block missing, short or
  /// failing its checksum — a write that never finished publishing).
  [[nodiscard]] u64 dropped_files() const { return dropped_files_; }
  /// Orphaned block/tmp files garbage-collected at recovery.
  [[nodiscard]] u64 orphans_collected() const { return orphans_collected_; }

 private:
  [[nodiscard]] std::string block_path(u64 block_id) const;
  [[nodiscard]] std::string manifest_path() const;
  /// Serialize the catalog and atomically publish it (durable mode only;
  /// a no-op in kEphemeral mode).
  void save_manifest();
  /// Load + verify the manifest and every referenced block; returns false
  /// when no (valid) manifest exists.
  bool load_manifest();
  /// Delete tmp files and blocks the recovered catalog does not reference.
  void gc_orphans();
  /// Enforce replica availability for a block read (counts failovers,
  /// aborts when every replica's datanode is dead).
  void check_replicas(const BlockInfo& block) const;
  /// The checked block read behind read: the replica check, the physical
  /// read under the retry policy (injection sites dfs.read.fail /
  /// dfs.read.slow) straight into dst[0, block.size), then the size and
  /// checksum check against the catalog entry. Charges bytes_read once.
  /// Safe to call concurrently.
  void read_block_into(const BlockInfo& block, char* dst) const;
  /// Physically write one block under the retry policy (injection site
  /// dfs.write.torn writes a real partial file before failing the attempt).
  void write_block_data(const BlockInfo& block, const std::vector<char>& data);

  std::string root_;
  u64 block_size_;
  u32 datanodes_;
  u32 replication_;
  Durability durability_ = Durability::kEphemeral;
  u64 next_block_id_ = 0;
  u32 next_replica_ = 0;
  u64 recovered_files_ = 0;
  u64 dropped_files_ = 0;
  u64 orphans_collected_ = 0;
  std::map<std::string, FileInfo> catalog_;
  std::vector<bool> dead_;            ///< per-datanode failure flags
  RetryPolicy io_retry_;
  // Read-side tallies: atomic, because concurrent block reads of one
  // `const` MiniDfs all update them.
  mutable std::atomic<u64> failovers_{0};
  mutable std::atomic<u64> io_retries_{0};
  mutable std::atomic<double> io_backoff_s_{0.0};
  mutable std::atomic<u64> slow_reads_{0};
  u64 torn_writes_ = 0;
};

}  // namespace sdb::dfs
