// RegistryWal unit suite — record framing, torn-tail truncation at every
// byte offset, generation-based compaction, and the registry-level recovery
// semantics built on top (committed-epoch replay, uncommitted-suffix
// truncation, snapshot + log round-trips).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/injection.hpp"
#include "serve/model_registry.hpp"
#include "serve/registry_wal.hpp"

namespace sdb::serve {
namespace {

namespace fs = std::filesystem;

class RegistryWalTest : public ::testing::Test {
 protected:
  RegistryWalTest()
      : dir_((fs::temp_directory_path() /
              ("sdb_wal_test_p" + std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(dir_);
  }
  ~RegistryWalTest() override { fs::remove_all(dir_); }

  /// Append N records with a recognizable pattern: insert, remove, publish,
  /// insert, remove, publish, ...
  void append_pattern(RegistryWal& wal, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      switch (i % 3) {
        case 0: {
          const double coords[2] = {static_cast<double>(i), 0.5};
          wal.append_insert(coords);
          break;
        }
        case 1:
          wal.append_remove(static_cast<i64>(i));
          break;
        default:
          wal.append_publish(i);
          break;
      }
    }
  }

  void check_pattern(const std::vector<WalRecord>& recs, size_t n) {
    ASSERT_EQ(recs.size(), n);
    for (size_t i = 0; i < n; ++i) {
      switch (i % 3) {
        case 0:
          EXPECT_EQ(recs[i].type, WalRecordType::kInsert);
          ASSERT_EQ(recs[i].coords.size(), 2u);
          EXPECT_EQ(recs[i].coords[0], static_cast<double>(i));
          EXPECT_EQ(recs[i].coords[1], 0.5);
          break;
        case 1:
          EXPECT_EQ(recs[i].type, WalRecordType::kRemove);
          EXPECT_EQ(recs[i].point_id, static_cast<i64>(i));
          break;
        default:
          EXPECT_EQ(recs[i].type, WalRecordType::kPublish);
          EXPECT_EQ(recs[i].epoch, i);
          break;
      }
    }
  }

  [[nodiscard]] fs::path log_file(u64 generation = 0) const {
    return fs::path(dir_) / ("wal_" + std::to_string(generation) + ".log");
  }

  std::string dir_;
};

TEST_F(RegistryWalTest, RoundTripsAllRecordTypes) {
  {
    RegistryWal wal(dir_);
    append_pattern(wal, 9);
    EXPECT_EQ(wal.appends(), 9u);
  }
  RegistryWal reopened(dir_);
  check_pattern(reopened.records(), 9);
  EXPECT_EQ(reopened.truncated_bytes(), 0u);
  EXPECT_FALSE(reopened.snapshot().has_value());
}

TEST_F(RegistryWalTest, AppendsSurviveAfterReopen) {
  {
    RegistryWal wal(dir_);
    append_pattern(wal, 4);
  }
  {
    RegistryWal wal(dir_);
    ASSERT_EQ(wal.records().size(), 4u);
    const double coords[2] = {4.0, 0.5};  // continue the pattern at i=4
    wal.append_remove(99);
    wal.append_insert(coords);
  }
  RegistryWal reopened(dir_);
  ASSERT_EQ(reopened.records().size(), 6u);
  EXPECT_EQ(reopened.records()[4].point_id, 99);
  EXPECT_EQ(reopened.records()[5].coords[0], 4.0);
}

// Satellite (d): truncate the log at EVERY byte offset within the last
// record. Recovery must always yield exactly N-1 records and never crash —
// a torn tail is indistinguishable from "the append never happened".
TEST_F(RegistryWalTest, TornTailAtEveryByteOffsetRecoversPrefix) {
  constexpr size_t kRecords = 7;
  u64 full_size = 0;
  u64 prefix_size = 0;
  {
    RegistryWal wal(dir_);
    append_pattern(wal, kRecords - 1);
    prefix_size = fs::file_size(log_file());
    const double coords[2] = {123.0, 456.0};
    wal.append_insert(coords);
    full_size = fs::file_size(log_file());
  }
  ASSERT_GT(full_size, prefix_size);

  const std::string intact = [&] {
    std::ifstream in(log_file(), std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();

  for (u64 cut = prefix_size; cut < full_size; ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut) + " of " +
                 std::to_string(full_size));
    {
      std::ofstream out(log_file(), std::ios::binary | std::ios::trunc);
      out.write(intact.data(), static_cast<std::streamsize>(cut));
    }
    RegistryWal wal(dir_);
    check_pattern(wal.records(), kRecords - 1);
    EXPECT_EQ(wal.truncated_bytes(), cut - prefix_size);
    // The torn bytes are physically gone: the file now ends exactly at the
    // last valid record, so appending resumes from a clean boundary.
    EXPECT_EQ(fs::file_size(log_file()), prefix_size);
  }
}

TEST_F(RegistryWalTest, CorruptPayloadByteDropsRecordAndSuffix) {
  {
    RegistryWal wal(dir_);
    append_pattern(wal, 6);
  }
  // Flip a byte inside record 3's payload: checksum mismatch. Records 0-2
  // survive; 3 and everything after it are truncated (a record boundary is
  // only trustworthy if every record before it verified).
  std::fstream f(log_file(), std::ios::binary | std::ios::in | std::ios::out);
  // ends_ is private; recompute record 3's start by scanning the sizes:
  // frame = 4 (len) + payload + 8 (fnv). Walk three frames.
  u64 off = 0;
  for (int i = 0; i < 3; ++i) {
    f.seekg(static_cast<std::streamoff>(off));
    u32 len = 0;
    f.read(reinterpret_cast<char*>(&len), sizeof(len));
    off += 4 + len + 8;
  }
  f.seekp(static_cast<std::streamoff>(off + 5));  // a payload byte of rec 3
  char byte = 0;
  f.seekg(static_cast<std::streamoff>(off + 5));
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(off + 5));
  f.write(&byte, 1);
  f.close();

  RegistryWal wal(dir_);
  check_pattern(wal.records(), 3);
  EXPECT_GT(wal.truncated_bytes(), 0u);
}

TEST_F(RegistryWalTest, TruncateToDropsSuffixOnDiskToo) {
  {
    RegistryWal wal(dir_);
    append_pattern(wal, 6);
    wal.truncate_to(2);
    ASSERT_EQ(wal.records().size(), 2u);
    // Appends after a truncation land right after the surviving prefix.
    wal.append_publish(77);
  }
  RegistryWal reopened(dir_);
  ASSERT_EQ(reopened.records().size(), 3u);
  check_pattern({reopened.records()[0], reopened.records()[1]}, 2);
  EXPECT_EQ(reopened.records()[2].type, WalRecordType::kPublish);
  EXPECT_EQ(reopened.records()[2].epoch, 77u);
}

TEST_F(RegistryWalTest, CompactionRotatesGenerationAndSubsumesLog) {
  {
    RegistryWal wal(dir_);
    append_pattern(wal, 5);
    wal.compact("STATE-AT-GEN-1", 7);
    EXPECT_EQ(wal.generation(), 1u);
    EXPECT_TRUE(wal.records().empty());  // snapshot subsumed them
    wal.append_publish(42);              // new-generation log keeps working
  }
  RegistryWal reopened(dir_);
  EXPECT_EQ(reopened.generation(), 1u);
  ASSERT_TRUE(reopened.snapshot().has_value());
  EXPECT_EQ(*reopened.snapshot(), "STATE-AT-GEN-1");
  ASSERT_EQ(reopened.records().size(), 1u);
  EXPECT_EQ(reopened.records()[0].epoch, 42u);
  // Generation 0's files are gone.
  EXPECT_FALSE(fs::exists(log_file(0)));
}

// Satellite (a): the replication handshake accessors. snapshot_epoch() is
// the base the follower catches up from; last_committed_epoch() is the
// newest provable commit (newest kPublish, else the snapshot's epoch).
TEST_F(RegistryWalTest, SnapshotAndCommittedEpochAccessors) {
  {
    RegistryWal wal(dir_);
    EXPECT_EQ(wal.snapshot_epoch(), 0u);
    EXPECT_EQ(wal.last_committed_epoch(), 0u);
    wal.append_publish(5);
    EXPECT_EQ(wal.last_committed_epoch(), 5u);
    wal.compact("BASE", 7);
    // Freshly compacted: no kPublish yet, the snapshot IS the commit proof.
    EXPECT_EQ(wal.snapshot_epoch(), 7u);
    EXPECT_EQ(wal.last_committed_epoch(), 7u);
    wal.append_publish(9);
    EXPECT_EQ(wal.last_committed_epoch(), 9u);
  }
  RegistryWal reopened(dir_);  // both survive reopen
  EXPECT_EQ(reopened.snapshot_epoch(), 7u);
  EXPECT_EQ(reopened.last_committed_epoch(), 9u);
}

// Satellite (a): replay-from-snapshot with a torn tail. A follower that
// crashed mid-way through fsyncing a shipped batch reopens its log: the
// snapshot base plus every complete record must survive, the torn record
// must vanish — at EVERY byte offset of the tear.
TEST_F(RegistryWalTest, ReplayFromSnapshotSurvivesTornShippedTail) {
  u64 full_size = 0;
  u64 prefix_size = 0;
  {
    RegistryWal wal(dir_);
    wal.compact("SNAP-BASE", 3);
    // Shipped records landing after the snapshot (one full batch + the
    // record whose append the crash tears).
    const double coords[2] = {1.0, 2.0};
    wal.append_insert(coords);
    wal.append_remove(7);
    wal.append_publish(4);
    prefix_size = fs::file_size(log_file(1));
    wal.append_insert(coords);  // the to-be-torn record
    full_size = fs::file_size(log_file(1));
  }
  for (u64 size = prefix_size; size < full_size; ++size) {
    fs::resize_file(log_file(1), size);
    RegistryWal wal(dir_);
    ASSERT_TRUE(wal.snapshot().has_value());
    EXPECT_EQ(*wal.snapshot(), "SNAP-BASE");
    EXPECT_EQ(wal.snapshot_epoch(), 3u);
    ASSERT_EQ(wal.records().size(), 3u) << "tear at byte " << size;
    EXPECT_EQ(wal.records()[1].point_id, 7);
    EXPECT_EQ(wal.last_committed_epoch(), 4u);
    EXPECT_EQ(wal.truncated_bytes(), size == prefix_size ? 0u : size - prefix_size);
  }
}

// In-memory mode (empty dir): same stream bookkeeping, zero files. This is
// the replication log of a non-durable replica.
TEST_F(RegistryWalTest, InMemoryModeTracksStreamWithoutFiles) {
  RegistryWal wal("");
  const double coords[2] = {1.0, 2.0};
  wal.append_insert(coords);
  wal.append_publish(6);
  EXPECT_EQ(wal.record_count(), 2u);
  EXPECT_EQ(wal.last_committed_epoch(), 6u);
  wal.truncate_to(1);
  EXPECT_EQ(wal.record_count(), 1u);
  wal.compact("MEM-STATE", 8);
  EXPECT_EQ(wal.generation(), 1u);
  EXPECT_EQ(wal.snapshot_epoch(), 8u);
  ASSERT_TRUE(wal.snapshot().has_value());
  EXPECT_EQ(*wal.snapshot(), "MEM-STATE");
  // reset_generation: a follower forcing its log onto the primary's stream
  // coordinates after a snapshot install.
  wal.reset_generation(5, "SHIPPED", 11);
  EXPECT_EQ(wal.generation(), 5u);
  EXPECT_EQ(wal.record_count(), 0u);
  EXPECT_EQ(wal.last_committed_epoch(), 11u);
}

TEST_F(RegistryWalTest, ResetGenerationRepositionsDurableLog) {
  {
    RegistryWal wal(dir_);
    append_pattern(wal, 4);
    wal.reset_generation(9, "SHIPPED-BASE", 2);
    EXPECT_EQ(wal.generation(), 9u);
    EXPECT_TRUE(wal.records().empty());
    wal.append_publish(3);  // stream records resume at (9, 0)
  }
  RegistryWal reopened(dir_);
  EXPECT_EQ(reopened.generation(), 9u);
  EXPECT_EQ(reopened.snapshot_epoch(), 2u);
  ASSERT_TRUE(reopened.snapshot().has_value());
  EXPECT_EQ(*reopened.snapshot(), "SHIPPED-BASE");
  ASSERT_EQ(reopened.records().size(), 1u);
  EXPECT_EQ(reopened.records()[0].epoch, 3u);
  EXPECT_FALSE(fs::exists(log_file(0)));  // old generation GC'd
}

TEST_F(RegistryWalTest, CorruptSnapshotFallsBackToPriorGeneration) {
  {
    RegistryWal wal(dir_);
    append_pattern(wal, 3);
    wal.compact("GEN-1", 1);
    wal.compact("GEN-2", 2);
  }
  // Corrupt generation 2's snapshot; generation 1 was deleted by the second
  // compact, so the opener must fall back to an empty generation-0 world
  // rather than trust a bad checksum.
  {
    std::ofstream out(fs::path(dir_) / "snapshot_2",
                      std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  RegistryWal reopened(dir_);
  EXPECT_FALSE(reopened.snapshot().has_value());
  EXPECT_TRUE(reopened.records().empty());
  EXPECT_GT(reopened.collected_files(), 0u);  // the bad snapshot was GC'd
}

// A name is a generation only when its whole suffix is digits: stray files
// beside a committed log (no suffix, a word, a numeric prefix) are not the
// WAL's, so it opens, replays its own records and skips them.
TEST_F(RegistryWalTest, ForeignFileNamesDoNotBlockRecovery) {
  {
    RegistryWal wal(dir_);
    append_pattern(wal, 3);  // insert, remove, publish: committed
  }
  const char* const foreign[] = {"snapshot_old", "snapshot_", "wal_x.log",
                                 "wal_.log", "snapshot_2.bak"};
  for (const char* name : foreign) {
    std::ofstream(fs::path(dir_) / name, std::ios::binary);
  }
  RegistryWal reopened(dir_);
  EXPECT_EQ(reopened.generation(), 0u);
  check_pattern(reopened.records(), 3);
  EXPECT_FALSE(reopened.snapshot().has_value());
  EXPECT_EQ(reopened.collected_files(), 0u);
  for (const char* name : foreign) {
    EXPECT_TRUE(fs::exists(fs::path(dir_) / name)) << name;
  }
}

#ifdef SDB_FAULT_INJECTION

/// In-process crash: throw instead of SIGKILL so one test can crash a
/// compaction and then play the recovering process.
struct SimulatedCrash {};
[[noreturn]] void throwing_handler(std::string_view) { throw SimulatedCrash{}; }

TEST_F(RegistryWalTest, CrashAtSnapshotRenameKeepsOldGeneration) {
  {
    RegistryWal wal(dir_);
    append_pattern(wal, 4);
    const fault::CrashHandler prev =
        fault::set_crash_handler(&throwing_handler);
    fault::ScopedFaultPlan plan("seed=1;wal.crash.snapshot_rename:every=1");
    EXPECT_THROW(wal.compact("NEVER-COMMITTED", 9), SimulatedCrash);
    fault::set_crash_handler(prev);
  }
  // The staged snapshot tmp never renamed: generation 0 is still the world.
  RegistryWal reopened(dir_);
  EXPECT_EQ(reopened.generation(), 0u);
  EXPECT_FALSE(reopened.snapshot().has_value());
  check_pattern(reopened.records(), 4);
  EXPECT_GT(reopened.collected_files(), 0u);  // tmp staged file GC'd
}

TEST_F(RegistryWalTest, CrashMidAppendLeavesPriorRecordsReadable) {
  {
    RegistryWal wal(dir_);
    append_pattern(wal, 5);
    const fault::CrashHandler prev =
        fault::set_crash_handler(&throwing_handler);
    fault::ScopedFaultPlan plan("seed=1;wal.crash.mid_append:every=1");
    EXPECT_THROW(wal.append_publish(99), SimulatedCrash);
    fault::set_crash_handler(prev);
  }
  RegistryWal reopened(dir_);
  check_pattern(reopened.records(), 5);     // torn 6th record truncated
  EXPECT_GT(reopened.truncated_bytes(), 0u);  // and it did hit the disk torn
}

#endif  // SDB_FAULT_INJECTION

// --- registry-level recovery semantics (the WAL's consumer) ----------------

class RegistryRecoveryTest : public RegistryWalTest {};

TEST_F(RegistryRecoveryTest, UncommittedMutationsAreTruncatedNotReplayed) {
  ModelRegistry::Config cfg;
  cfg.params = {1.5, 3};
  cfg.publish_every = 0;  // manual publish only
  cfg.wal_dir = dir_;
  {
    ModelRegistry registry(cfg, 2);
    for (int i = 0; i < 4; ++i) {
      const double coords[2] = {static_cast<double>(i), 0.0};
      registry.insert(coords);
    }
    registry.publish();  // commits the 4 inserts at epoch 2
    const double extra[2] = {9.0, 9.0};
    registry.insert(extra);  // never published -> uncommitted
  }
  ModelRegistry recovered(cfg, 2);
  EXPECT_EQ(recovered.epoch(), 2u);
  EXPECT_EQ(recovered.active_points(), 4u);
  EXPECT_EQ(recovered.wal_replayed(), 4u);
  EXPECT_EQ(recovered.wal_discarded(), 1u);
  // The truncation is durable: a third incarnation sees a clean log whose
  // last record is the commit marker — the orphaned insert cannot return.
  ModelRegistry third(cfg, 2);
  EXPECT_EQ(third.active_points(), 4u);
  EXPECT_EQ(third.wal_discarded(), 0u);
}

TEST_F(RegistryRecoveryTest, RemovesReplayTooAndIdsStaySequential) {
  ModelRegistry::Config cfg;
  cfg.params = {1.5, 3};
  cfg.publish_every = 0;
  cfg.wal_dir = dir_;
  {
    ModelRegistry registry(cfg, 2);
    for (int i = 0; i < 6; ++i) {
      const double coords[2] = {static_cast<double>(i), 0.0};
      registry.insert(coords);
    }
    EXPECT_TRUE(registry.try_remove(2));
    EXPECT_TRUE(registry.try_remove(4));
    registry.publish();
  }
  ModelRegistry recovered(cfg, 2);
  EXPECT_EQ(recovered.active_points(), 4u);
  // Replay preserved the id space: the next insert continues after the
  // replayed ones instead of colliding with them.
  const double coords[2] = {100.0, 0.0};
  EXPECT_EQ(recovered.insert(coords), 6);
  EXPECT_FALSE(recovered.try_remove(2));  // still tombstoned after replay
}

TEST_F(RegistryRecoveryTest, SnapshotPlusLogRecoversAcrossCompaction) {
  ModelRegistry::Config cfg;
  cfg.params = {1.5, 3};
  cfg.publish_every = 0;
  cfg.wal_dir = dir_;
  u64 compacted_epoch = 0;
  {
    ModelRegistry registry(cfg, 2);
    for (int i = 0; i < 5; ++i) {
      const double coords[2] = {static_cast<double>(i), 0.0};
      registry.insert(coords);
    }
    registry.try_remove(0);
    compacted_epoch = registry.compact();  // state -> snapshot generation 1
    // Post-compaction mutations land in the new generation's log.
    const double coords[2] = {50.0, 0.0};
    registry.insert(coords);
    registry.publish();
  }
  ModelRegistry recovered(cfg, 2);
  EXPECT_EQ(recovered.active_points(), 5u);  // 5 - 1 removed + 1 post-compact
  EXPECT_GT(recovered.epoch(), compacted_epoch);
  EXPECT_EQ(recovered.wal()->generation(), 1u);
  EXPECT_EQ(recovered.wal_replayed(), 1u);  // only the post-snapshot insert
}

TEST_F(RegistryRecoveryTest, DurabilityOffKeepsLegacyBehaviour) {
  ModelRegistry::Config cfg;
  cfg.params = {1.5, 3};
  cfg.publish_every = 4;
  ModelRegistry registry(cfg, 2);
  EXPECT_EQ(registry.wal(), nullptr);
  const double coords[2] = {1.0, 2.0};
  registry.insert(coords);
  EXPECT_EQ(registry.active_points(), 1u);
  EXPECT_EQ(registry.wal_replayed(), 0u);
}

}  // namespace
}  // namespace sdb::serve
