#include "minispark/rdd.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "minispark/text_file_rdd.hpp"

namespace sdb::minispark {
namespace {

std::vector<int> iota_vec(int n) {
  std::vector<int> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(Rdd, ParallelizeChunksCoverInput) {
  auto rdd = std::make_shared<ParallelizeRdd<int>>(iota_vec(10), 3);
  EXPECT_EQ(rdd->num_partitions(), 3u);
  std::vector<int> all;
  for (u32 p = 0; p < 3; ++p) {
    const auto part = rdd->compute(p);
    all.insert(all.end(), part.begin(), part.end());
  }
  EXPECT_EQ(all, iota_vec(10));
}

TEST(Rdd, ParallelizeMorePartitionsThanElements) {
  auto rdd = std::make_shared<ParallelizeRdd<int>>(iota_vec(2), 5);
  std::vector<int> all;
  for (u32 p = 0; p < 5; ++p) {
    const auto part = rdd->compute(p);
    all.insert(all.end(), part.begin(), part.end());
  }
  EXPECT_EQ(all, iota_vec(2));
}

TEST(Rdd, MapTransformsEveryElement) {
  auto rdd = std::make_shared<ParallelizeRdd<int>>(iota_vec(10), 2);
  auto doubled = rdd->map([](const int& x) { return x * 2; });
  EXPECT_EQ(doubled->num_partitions(), 2u);
  const auto part0 = doubled->compute(0);
  EXPECT_EQ(part0, (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(Rdd, MapCanChangeType) {
  auto rdd = std::make_shared<ParallelizeRdd<int>>(iota_vec(3), 1);
  auto strings = rdd->map([](const int& x) { return std::to_string(x); });
  EXPECT_EQ(strings->compute(0), (std::vector<std::string>{"0", "1", "2"}));
}

TEST(Rdd, FilterKeepsMatching) {
  auto rdd = std::make_shared<ParallelizeRdd<int>>(iota_vec(10), 2);
  auto even = rdd->filter([](const int& x) { return x % 2 == 0; });
  const auto part0 = even->compute(0);
  const auto part1 = even->compute(1);
  EXPECT_EQ(part0, (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(part1, (std::vector<int>{6, 8}));
}

TEST(Rdd, MapPartitionsSeesIndex) {
  auto rdd = std::make_shared<ParallelizeRdd<int>>(iota_vec(6), 3);
  auto tagged = rdd->map_partitions(
      [](u32 p, std::vector<int>&& data) {
        std::vector<u32> out;
        for (const int x : data) out.push_back(p * 100 + static_cast<u32>(x));
        return out;
      });
  EXPECT_EQ(tagged->compute(2), (std::vector<u32>{204, 205}));
}

TEST(Rdd, LineageDepthAndParents) {
  auto base = std::make_shared<ParallelizeRdd<int>>(iota_vec(4), 2);
  auto a = base->map([](const int& x) { return x + 1; });
  auto b = a->filter([](const int& x) { return x > 1; });
  EXPECT_EQ(base->lineage_depth(), 0u);
  EXPECT_EQ(a->lineage_depth(), 1u);
  EXPECT_EQ(b->lineage_depth(), 2u);
  ASSERT_EQ(b->parents().size(), 1u);
  EXPECT_EQ(b->parents()[0]->id(), a->id());
}

TEST(Rdd, ChainedTransformsCompose) {
  auto base = std::make_shared<ParallelizeRdd<int>>(iota_vec(100), 4);
  auto result = base->map([](const int& x) { return x * 3; })
                    ->filter([](const int& x) { return x % 2 == 0; })
                    ->map([](const int& x) { return x / 3; });
  std::vector<int> all;
  for (u32 p = 0; p < 4; ++p) {
    const auto part = result->compute(p);
    all.insert(all.end(), part.begin(), part.end());
  }
  // Multiples of 3 that are even, divided by 3 -> even numbers 0..98... the
  // x*3 even <=> x even, so all even x survive.
  std::vector<int> expected;
  for (int x = 0; x < 100; x += 2) expected.push_back(x);
  EXPECT_EQ(all, expected);
}

TEST(Rdd, CacheMemoizes) {
  int computations = 0;
  auto gen = std::make_shared<GeneratorRdd<int>>(
      [&computations](u32 p) {
        ++computations;
        return std::vector<int>{static_cast<int>(p)};
      },
      2);
  gen->cache();
  EXPECT_TRUE(gen->is_cached());
  EXPECT_EQ(gen->materialize(0), std::vector<int>{0});
  EXPECT_EQ(gen->materialize(0), std::vector<int>{0});
  EXPECT_EQ(gen->materialize(1), std::vector<int>{1});
  EXPECT_EQ(computations, 2);
  gen->uncache_all();
  (void)gen->materialize(0);
  EXPECT_EQ(computations, 3);
}

TEST(Rdd, UncachedRecomputes) {
  int computations = 0;
  auto gen = std::make_shared<GeneratorRdd<int>>(
      [&computations](u32 p) {
        ++computations;
        return std::vector<int>{static_cast<int>(p)};
      },
      1);
  (void)gen->materialize(0);
  (void)gen->materialize(0);
  EXPECT_EQ(computations, 2);
}

TEST(TextFileRddTest, OnePartitionPerBlock) {
  namespace fs = std::filesystem;
  const std::string root = (fs::temp_directory_path() / "sdb_rdd_dfs").string();
  fs::remove_all(root);
  dfs::MiniDfs dfs(root, 16);
  std::string content;
  for (int i = 0; i < 20; ++i) content += "line-" + std::to_string(i) + "\n";
  dfs.write("/t", content);
  TextFileRdd rdd(dfs, "/t");
  EXPECT_EQ(rdd.num_partitions(), dfs.stat("/t").blocks.size());
  std::vector<std::string> all;
  for (u32 p = 0; p < rdd.num_partitions(); ++p) {
    const auto lines = rdd.compute(p);
    all.insert(all.end(), lines.begin(), lines.end());
  }
  ASSERT_EQ(all.size(), 20u);
  EXPECT_EQ(all[0], "line-0");
  EXPECT_EQ(all[19], "line-19");
  // Locality hints come from block replicas.
  EXPECT_FALSE(rdd.preferred_locations(0).empty());
  fs::remove_all(root);
}

}  // namespace
}  // namespace sdb::minispark
