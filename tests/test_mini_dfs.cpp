#include "dfs/mini_dfs.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "util/counters.hpp"

namespace sdb::dfs {
namespace {

namespace fs = std::filesystem;

class MiniDfsTest : public ::testing::Test {
 protected:
  // Per-process root: `ctest -j` runs each case as its own process, and a
  // shared root means one test's remove_all() deletes another's live block
  // files mid-run.
  MiniDfsTest()
      : root_((fs::temp_directory_path() /
               ("sdb_dfs_test_p" + std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(root_);
  }
  ~MiniDfsTest() override { fs::remove_all(root_); }
  std::string root_;
};

TEST_F(MiniDfsTest, WriteReadRoundTrip) {
  MiniDfs dfs(root_, 16);
  const std::string content = "hello\nworld\nthis is a test\n";
  dfs.write("/data/points.txt", content);
  EXPECT_TRUE(dfs.exists("/data/points.txt"));
  EXPECT_EQ(dfs.read("/data/points.txt"), content);
}

TEST_F(MiniDfsTest, BlockSplitting) {
  MiniDfs dfs(root_, 10);
  const std::string content(35, 'x');
  const FileInfo& info = dfs.write("/f", content);
  EXPECT_EQ(info.size, 35u);
  ASSERT_EQ(info.blocks.size(), 4u);
  EXPECT_EQ(info.blocks[0].size, 10u);
  EXPECT_EQ(info.blocks[3].size, 5u);
}

TEST_F(MiniDfsTest, ReplicaPlacement) {
  MiniDfs dfs(root_, 8, /*datanodes=*/4, /*replication=*/3);
  const FileInfo& info = dfs.write("/f", std::string(20, 'y'));
  for (const auto& block : info.blocks) {
    EXPECT_EQ(block.replicas.size(), 3u);
    for (const u32 r : block.replicas) EXPECT_LT(r, 4u);
  }
}

TEST_F(MiniDfsTest, ReplicationClampedToDatanodes) {
  MiniDfs dfs(root_, 8, /*datanodes=*/2, /*replication=*/5);
  const FileInfo& info = dfs.write("/f", "abc");
  EXPECT_EQ(info.blocks[0].replicas.size(), 2u);
}

TEST_F(MiniDfsTest, TextSplitsReconstructRecordsExactlyOnce) {
  // Records straddle block boundaries; the concurrent read must still yield
  // the original records exactly once, in order.
  MiniDfs dfs(root_, 7);  // tiny blocks => lots of straddling
  std::string content;
  for (int i = 0; i < 50; ++i) {
    content += "record-" + std::to_string(i) + "\n";
  }
  dfs.write("/records", content);
  EXPECT_EQ(dfs.read("/records", 4), content);
}

TEST_F(MiniDfsTest, TextSplitLongRecordSpanningManyBlocks) {
  MiniDfs dfs(root_, 4);
  const std::string content = "aa\n" + std::string(20, 'b') + "\ncc\n";
  dfs.write("/long", content);
  EXPECT_EQ(dfs.read("/long", 4), content);
}

TEST_F(MiniDfsTest, OverwriteReplacesContent) {
  MiniDfs dfs(root_, 16);
  dfs.write("/f", "first");
  dfs.write("/f", "second version");
  EXPECT_EQ(dfs.read("/f"), "second version");
}

TEST_F(MiniDfsTest, RemoveDeletesBlocks) {
  MiniDfs dfs(root_, 4);
  dfs.write("/f", "0123456789");
  dfs.remove("/f");
  EXPECT_FALSE(dfs.exists("/f"));
  // Block files are gone from the backing directory.
  size_t files = 0;
  for (const auto& e : fs::directory_iterator(fs::path(root_) / "blocks")) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 0u);
}

TEST_F(MiniDfsTest, EmptyFile) {
  MiniDfs dfs(root_, 16);
  dfs.write("/empty", "");
  EXPECT_TRUE(dfs.exists("/empty"));
  EXPECT_EQ(dfs.read("/empty"), "");
  EXPECT_EQ(dfs.stat("/empty").blocks.size(), 0u);
}

TEST_F(MiniDfsTest, StatMissingAborts) {
  MiniDfs dfs(root_, 16);
  EXPECT_DEATH((void)dfs.stat("/missing"), "no such DFS file");
}

TEST_F(MiniDfsTest, ReadCountsBytes) {
  MiniDfs dfs(root_, 8);
  dfs.write("/f", std::string(30, 'z'));
  WorkCounters wc;
  {
    ScopedCounters scope(&wc);
    (void)dfs.read("/f");
  }
  EXPECT_EQ(wc.bytes_read, 30u);
}

TEST_F(MiniDfsTest, ConcurrentReadMatchesOneThread) {
  // Text with records of every length, so blocks split records anywhere.
  std::string content;
  for (int i = 0; content.size() < 6000; ++i) {
    content += std::string(static_cast<size_t>(i % 23), 'a' + i % 26) + "\n";
  }
  for (const u64 block_size : {1u, 7u, 4096u}) {
    MiniDfs dfs(root_ + "/bs" + std::to_string(block_size), block_size);
    dfs.write("/f", content);
    const std::string one = dfs.read("/f", 1);
    ASSERT_EQ(one, content);
    for (const unsigned threads : {1u, 2u, 4u, 16u}) {
      WorkCounters wc;
      std::string got;
      {
        ScopedCounters scope(&wc);
        got = dfs.read("/f", threads);
      }
      EXPECT_EQ(got, one) << "block size " << block_size << ", " << threads
                          << " threads";
      EXPECT_EQ(wc.bytes_read, content.size());
    }
  }
}

TEST_F(MiniDfsTest, ConcurrentReadThrowsCorruptBlockAfterEveryRead) {
  MiniDfs dfs(root_, 8, 4, 1);
  const std::string content(8 * 40, 'c');
  const FileInfo& info = dfs.write("/f", content);
  // Same size, one flipped byte, in two blocks: only the checksum catches
  // them.
  for (const size_t b : {5u, 30u}) {
    std::fstream f(fs::path(root_) / "blocks" /
                       ("blk_" + std::to_string(info.blocks[b].id)),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(1);
    f.put('C');
  }
  WorkCounters wc;
  std::string error;
  {
    ScopedCounters scope(&wc);
    try {
      (void)dfs.read("/f", 4);
    } catch (const DfsTransientError& e) {
      error = e.what();
    }
  }
  // The lower corrupt block's error escapes, and only once every block
  // read had finished: each one charged its bytes.
  EXPECT_NE(error.find("corrupt block " + std::to_string(info.blocks[5].id) +
                       ":"),
            std::string::npos)
      << error;
  EXPECT_EQ(wc.bytes_read, content.size());
}

// --- durable mode (atomic publish + manifest recovery) ---------------------

TEST_F(MiniDfsTest, DurableCatalogSurvivesReopen) {
  const std::string a(20, 'a');
  const std::string b = "hello\nworld\n";
  {
    MiniDfs dfs(root_, 8, 4, 2, Durability::kDurable);
    dfs.write("/x/a", a);
    dfs.write("/b", b);
  }
  MiniDfs reopened(root_, 8, 4, 2, Durability::kDurable);
  EXPECT_EQ(reopened.recovered_files(), 2u);
  EXPECT_EQ(reopened.dropped_files(), 0u);
  EXPECT_EQ(reopened.read("/x/a"), a);
  EXPECT_EQ(reopened.read("/b"), b);
  // New writes keep working after recovery (block-id allocation resumed past
  // the recovered ids, so nothing collides).
  reopened.write("/c", "fresh");
  EXPECT_EQ(reopened.read("/c"), "fresh");
  EXPECT_EQ(reopened.read("/x/a"), a);
}

TEST_F(MiniDfsTest, EphemeralCatalogDoesNotSurviveReopen) {
  {
    MiniDfs dfs(root_, 8);
    dfs.write("/f", "transient");
  }
  MiniDfs reopened(root_, 8);
  EXPECT_FALSE(reopened.exists("/f"));
  EXPECT_EQ(reopened.recovered_files(), 0u);
}

TEST_F(MiniDfsTest, TornBlockIsRejectedOnReadNotReturnedShort) {
  // The satellite invariant: a block whose bytes no longer match the
  // manifest (torn write, external truncation) must never be read back as a
  // short-but-valid file — the read fails loudly instead.
  MiniDfs dfs(root_, 8, 4, 1, Durability::kDurable);
  dfs.write("/f", std::string(24, 'q'));
  const u64 victim = dfs.stat("/f").blocks[1].id;
  fs::resize_file(fs::path(root_) / "blocks" / ("blk_" + std::to_string(victim)),
                  2);
  EXPECT_THROW((void)dfs.read("/f"), DfsTransientError);
  EXPECT_EQ(dfs.verify("/f"), std::vector<size_t>{1});
}

TEST_F(MiniDfsTest, CorruptBlockByteIsRejectedOnRead) {
  MiniDfs dfs(root_, 8, 4, 1, Durability::kDurable);
  dfs.write("/f", std::string(16, 'q'));
  const u64 victim = dfs.stat("/f").blocks[0].id;
  const fs::path bp =
      fs::path(root_) / "blocks" / ("blk_" + std::to_string(victim));
  // Same size, one flipped byte: only the checksum can catch it.
  std::fstream f(bp, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(3);
  f.put('Q');
  f.close();
  EXPECT_THROW((void)dfs.read("/f"), DfsTransientError);
  EXPECT_EQ(dfs.verify("/f"), std::vector<size_t>{0});
}

TEST_F(MiniDfsTest, DurableOverwriteIsAtomicAcrossReopen) {
  const std::string v2(40, 'b');
  {
    MiniDfs dfs(root_, 16, 4, 2, Durability::kDurable);
    dfs.write("/f", std::string(40, 'a'));
    dfs.write("/f", v2);  // overwrite republishes the manifest
  }
  MiniDfs reopened(root_, 16, 4, 2, Durability::kDurable);
  EXPECT_EQ(reopened.read("/f"), v2);
  EXPECT_TRUE(reopened.verify("/f").empty());
}

TEST_F(MiniDfsTest, DurableRemoveSurvivesReopen) {
  {
    MiniDfs dfs(root_, 8, 4, 2, Durability::kDurable);
    dfs.write("/f", "doomed");
    dfs.write("/keep", "kept");
    dfs.remove("/f");
  }
  MiniDfs reopened(root_, 8, 4, 2, Durability::kDurable);
  EXPECT_FALSE(reopened.exists("/f"));
  EXPECT_EQ(reopened.read("/keep"), "kept");
}

// Recovery deletes unreferenced blocks, and a name is a block only when its
// suffix is all decimal digits: a sign, a space, an empty or a non-numeric
// suffix is not a name the DFS writes, so recovery leaves it alone.
TEST_F(MiniDfsTest, RecoveryKeepsBlockNamesItNeverWrote) {
  const std::string data(20, 'r');
  {
    MiniDfs dfs(root_, 8, 4, 2, Durability::kDurable);
    dfs.write("/f", data);
  }
  const fs::path blocks = fs::path(root_) / "blocks";
  const char* const foreign[] = {"blk_-5", "blk_ 7", "blk_", "blk_x"};
  for (const char* name : foreign) {
    std::ofstream(blocks / name, std::ios::binary) << "foreign";
  }
  std::ofstream(blocks / "blk_99", std::ios::binary) << "orphan";
  MiniDfs reopened(root_, 8, 4, 2, Durability::kDurable);
  EXPECT_EQ(reopened.read("/f"), data);
  EXPECT_EQ(reopened.orphans_collected(), 1u);
  EXPECT_FALSE(fs::exists(blocks / "blk_99"));
  for (const char* name : foreign) {
    EXPECT_TRUE(fs::exists(blocks / name)) << name;
  }
}

}  // namespace
}  // namespace sdb::dfs
