#include "util/flat_hash.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "util/rng.hpp"

namespace sdb {
namespace {

TEST(FlatIdSet, InsertAndContains) {
  FlatIdSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(6));
  EXPECT_EQ(s.size(), 1u);
}

TEST(FlatIdSet, GrowthKeepsContents) {
  FlatIdSet s(4);
  for (i64 i = 0; i < 10000; ++i) EXPECT_TRUE(s.insert(i * 3));
  EXPECT_EQ(s.size(), 10000u);
  for (i64 i = 0; i < 10000; ++i) {
    EXPECT_TRUE(s.contains(i * 3));
    EXPECT_FALSE(s.contains(i * 3 + 1));
  }
}

TEST(FlatIdSet, Clear) {
  FlatIdSet s;
  s.insert(1);
  s.insert(2);
  s.clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.insert(1));
}

TEST(FlatIdSet, MatchesStdUnorderedSet) {
  // Property: random workload agrees with std::unordered_set.
  Rng rng(99);
  FlatIdSet mine;
  std::unordered_set<i64> reference;
  for (int i = 0; i < 20000; ++i) {
    const i64 key = static_cast<i64>(rng.uniform_index(5000));
    EXPECT_EQ(mine.insert(key), reference.insert(key).second);
  }
  EXPECT_EQ(mine.size(), reference.size());
  for (i64 k = 0; k < 5000; ++k) {
    EXPECT_EQ(mine.contains(k), reference.contains(k));
  }
}

}  // namespace
}  // namespace sdb
