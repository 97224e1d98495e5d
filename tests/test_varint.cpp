#include "util/varint.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace sdb {
namespace {

u64 roundtrip(u64 v) {
  std::vector<char> buf;
  put_varint(buf, v);
  size_t pos = 0;
  const u64 back = get_varint(buf.data(), buf.size(), pos);
  EXPECT_EQ(pos, buf.size());
  return back;
}

TEST(Varint, KnownValues) {
  EXPECT_EQ(roundtrip(0), 0u);
  EXPECT_EQ(roundtrip(1), 1u);
  EXPECT_EQ(roundtrip(127), 127u);
  EXPECT_EQ(roundtrip(128), 128u);
  EXPECT_EQ(roundtrip(300), 300u);
  EXPECT_EQ(roundtrip(~0ull), ~0ull);
}

TEST(Varint, EncodedSizes) {
  auto size_of = [](u64 v) {
    std::vector<char> buf;
    put_varint(buf, v);
    return buf.size();
  };
  EXPECT_EQ(size_of(0), 1u);
  EXPECT_EQ(size_of(127), 1u);
  EXPECT_EQ(size_of(128), 2u);
  EXPECT_EQ(size_of(16383), 2u);
  EXPECT_EQ(size_of(16384), 3u);
  EXPECT_EQ(size_of(~0ull), 10u);
}

TEST(Varint, RandomRoundTrip) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const u64 bits = rng.uniform_index(64);
    const u64 v = rng.uniform_index(~0ull >> bits ? (~0ull >> bits) : 1);
    EXPECT_EQ(roundtrip(v), v);
  }
}

TEST(Varint, TruncatedAborts) {
  std::vector<char> buf;
  put_varint(buf, 300);
  buf.pop_back();
  size_t pos = 0;
  EXPECT_DEATH(get_varint(buf.data(), buf.size(), pos), "truncated");

  // An id-list count of 2^62 with two bytes behind it: every id takes at
  // least one byte, so the count is truncated input, caught before it sizes
  // the list.
  std::vector<char> list;
  put_varint(list, u64{1} << 62);
  put_varint(list, 0);
  put_varint(list, 0);
  size_t list_pos = 0;
  EXPECT_DEATH(get_id_list(list.data(), list.size(), list_pos), "truncated");
}

TEST(Zigzag, SmallMagnitudesSmallCodes) {
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
  EXPECT_EQ(zigzag(-2), 3u);
  for (const i64 v : std::initializer_list<i64>{
           -1000000, -1, 0, 1, 7, 123456789,
           std::numeric_limits<i64>::min(), std::numeric_limits<i64>::max()}) {
    EXPECT_EQ(unzigzag(zigzag(v)), v);
  }
}

TEST(IdList, RoundTripSorted) {
  std::vector<char> buf;
  put_id_list(buf, {100, 5, 7, 3000, 6});
  size_t pos = 0;
  EXPECT_EQ(get_id_list(buf.data(), buf.size(), pos),
            (std::vector<i64>{5, 6, 7, 100, 3000}));
  EXPECT_EQ(pos, buf.size());
}

TEST(IdList, Empty) {
  std::vector<char> buf;
  put_id_list(buf, {});
  size_t pos = 0;
  EXPECT_TRUE(get_id_list(buf.data(), buf.size(), pos).empty());
}

TEST(IdList, DenseIdsCompressWell) {
  // 1000 consecutive ids -> ~1 byte per delta after the first.
  std::vector<i64> ids;
  for (i64 i = 5000; i < 6000; ++i) ids.push_back(i);
  std::vector<char> buf;
  put_id_list(buf, ids);
  EXPECT_LT(buf.size(), 1100u);          // vs 8000 bytes fixed-width
  size_t pos = 0;
  EXPECT_EQ(get_id_list(buf.data(), buf.size(), pos), ids);
}

TEST(IdList, RandomRoundTrip) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<i64> ids;
    const u64 n = rng.uniform_index(200);
    for (u64 i = 0; i < n; ++i) {
      ids.push_back(static_cast<i64>(rng.uniform_index(1000000)));
    }
    std::vector<char> buf;
    put_id_list(buf, ids);
    std::sort(ids.begin(), ids.end());
    size_t pos = 0;
    EXPECT_EQ(get_id_list(buf.data(), buf.size(), pos), ids);
  }
}

}  // namespace
}  // namespace sdb
