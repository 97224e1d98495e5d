// Randomized laws for the driver's read path (SparkDbscan::run_from_dfs):
// for ANY content and ANY block size, MiniDfs::read(path, t) returns the
// written bytes exactly at every thread count, and from_text(text, t)
// parses them into points bit-identical to a one-thread parse of the
// original text. Together: every record exactly once, in order, however the
// blocks and the parser's byte ranges cut the records.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "dfs/mini_dfs.hpp"
#include "synth/io.hpp"
#include "util/rng.hpp"

namespace sdb::dfs {
namespace {

namespace fs = std::filesystem;

constexpr unsigned kThreadCounts[] = {1, 2, 4, 16};

class DfsFuzz : public ::testing::TestWithParam<u64> {
 protected:
  // The root must be unique per seed AND per process: `ctest -j` runs each
  // parameterized seed as its own process, and a shared root means one
  // test's constructor remove_all() deletes another's live block files
  // mid-run (the seed suite's historical Fail/abort).
  DfsFuzz()
      : root_((fs::temp_directory_path() /
               ("sdb_dfs_fuzz_s" + std::to_string(GetParam()) + "_p" +
                std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(root_);
  }
  ~DfsFuzz() override { fs::remove_all(root_); }
  std::string root_;
};

TEST_P(DfsFuzz, SplitsReassembleExactly) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const u64 block = 1 + rng.uniform_index(64);
    const u64 records = rng.uniform_index(40);
    std::string content;
    for (u64 r = 0; r < records; ++r) {
      const u64 len = rng.uniform_index(3 * block + 2);  // may span blocks
      std::string record;
      for (u64 i = 0; i < len; ++i) {
        record += static_cast<char>('a' + rng.uniform_index(26));
      }
      content += record + "\n";
    }
    // Occasionally drop the trailing newline.
    if (!content.empty() && rng.chance(0.3)) content.pop_back();

    MiniDfs dfs(root_ + "/t" + std::to_string(trial), block);
    dfs.write("/f", content);
    for (const unsigned threads : kThreadCounts) {
      EXPECT_EQ(dfs.read("/f", threads), content)
          << "block=" << block << " trial=" << trial
          << " threads=" << threads;
    }
  }
}

/// One random coordinate, in one of the spellings std::from_chars reads.
std::string random_coordinate(Rng& rng) {
  char buf[64];
  const double x = rng.uniform(-1000.0, 1000.0);
  switch (rng.uniform_index(4)) {
    case 0: std::snprintf(buf, sizeof(buf), "%.17g", x); break;
    case 1: std::snprintf(buf, sizeof(buf), "%.3f", x); break;
    case 2: std::snprintf(buf, sizeof(buf), "%.6e", x); break;
    default: std::snprintf(buf, sizeof(buf), "%d", static_cast<int>(x)); break;
  }
  return buf;
}

TEST_P(DfsFuzz, ParsedPointsMatchOneThreadParse) {
  // Texts of 200-256 KiB hold several of from_text's 16 KiB-or-larger byte
  // ranges, and blocks of 1-64 KiB cut records at arbitrary bytes, so block
  // edges, range edges and record edges fall everywhere relative to each
  // other.
  Rng rng(GetParam() ^ 0x9e3779b97f4a7c15ull);
  for (int trial = 0; trial < 2; ++trial) {
    const u64 block = (1 + rng.uniform_index(64)) << 10;
    const u64 target = (200u << 10) + rng.uniform_index(56u << 10);
    const u64 dim = 1 + rng.uniform_index(12);
    std::string content;
    while (content.size() < target) {
      if (rng.chance(0.02)) content += rng.chance(0.5) ? "\n" : " \t\n";
      for (u64 d = 0; d < dim; ++d) {
        if (d > 0) content += rng.chance(0.9) ? " " : "\t ";
        content += random_coordinate(rng);
      }
      content += rng.chance(0.05) ? "\r\n" : "\n";
    }
    if (rng.chance(0.5)) content.pop_back();  // no trailing newline

    MiniDfs dfs(root_ + "/n" + std::to_string(trial), block);
    dfs.write("/points", content);
    const PointSet expected = synth::from_text(content, 1);
    ASSERT_EQ(static_cast<u64>(expected.dim()), dim);
    for (const unsigned threads : kThreadCounts) {
      SCOPED_TRACE("block=" + std::to_string(block) +
                   " trial=" + std::to_string(trial) +
                   " threads=" + std::to_string(threads));
      const PointSet parsed =
          synth::from_text(dfs.read("/points", threads), threads);
      ASSERT_EQ(parsed.dim(), expected.dim());
      ASSERT_EQ(parsed.size(), expected.size());
      EXPECT_EQ(std::memcmp(parsed.raw().data(), expected.raw().data(),
                            expected.raw().size() * sizeof(double)),
                0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfsFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace sdb::dfs
