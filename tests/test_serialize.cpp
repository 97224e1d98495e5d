#include "util/serialize.hpp"

#include <gtest/gtest.h>

#include "core/partial_cluster.hpp"
#include "util/counters.hpp"
#include "util/fnv.hpp"

#include <cstdio>
#include <filesystem>
#include <span>
#include <string_view>

namespace sdb {
namespace {

TEST(Serialize, ScalarRoundTrip) {
  BinaryWriter w;
  w.write_u8(200);
  w.write_u32(0xdeadbeef);
  w.write_u64(0x123456789abcdef0ull);
  w.write_i64(-42);
  w.write_f64(3.14159);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.read_u8(), 200u);
  EXPECT_EQ(r.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.read_u64(), 0x123456789abcdef0ull);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_DOUBLE_EQ(r.read_f64(), 3.14159);
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, StringRoundTrip) {
  BinaryWriter w;
  w.write_string("");
  w.write_string("hello world");
  w.write_string(std::string("bin\0ary", 7));
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.read_string(), "");
  EXPECT_EQ(r.read_string(), "hello world");
  EXPECT_EQ(r.read_string(), std::string("bin\0ary", 7));
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, VectorRoundTrip) {
  BinaryWriter w;
  w.write_i64_vec({1, -2, 3});
  w.write_f64_vec({});
  w.write_f64_vec({0.5, -1.5});
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.read_i64_vec(), (std::vector<i64>{1, -2, 3}));
  EXPECT_TRUE(r.read_f64_vec().empty());
  EXPECT_EQ(r.read_f64_vec(), (std::vector<double>{0.5, -1.5}));
}

TEST(Serialize, RemainingAndPosition) {
  BinaryWriter w;
  w.write_u64(1);
  w.write_u64(2);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.remaining(), 16u);
  r.read_u64();
  EXPECT_EQ(r.position(), 8u);
  EXPECT_EQ(r.remaining(), 8u);
}

TEST(SerializeDeath, TruncatedInputAborts) {
  BinaryWriter w;
  w.write_u32(7);
  BinaryReader r(w.buffer());
  EXPECT_DEATH(r.read_u64(), "truncated");

  // Length prefixes far past the bytes left — 2^62 elements, 2^64 - 1
  // bytes — are truncated input too, caught before anything is allocated
  // (and before pos + n can wrap).
  BinaryWriter huge_vec;
  huge_vec.write_u64(u64{1} << 62);
  huge_vec.write_u64(0);
  BinaryReader rv(huge_vec.buffer());
  EXPECT_DEATH(rv.read_i64_vec(), "truncated");
  BinaryWriter huge_str;
  huge_str.write_u64(~u64{0});
  huge_str.write_u64(0);
  BinaryReader rs(huge_str.buffer());
  EXPECT_DEATH(rs.read_string(), "truncated");
}

TEST(Serialize, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sdb_serialize_test.bin")
          .string();
  const std::vector<char> data = {'a', 'b', '\0', 'c'};
  write_file(path, data);
  EXPECT_EQ(read_file(path), data);
  std::filesystem::remove(path);
}

TEST(Serialize, FileIoCharactersCounted) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sdb_serialize_count.bin")
          .string();
  WorkCounters wc;
  {
    ScopedCounters scope(&wc);
    write_file(path, std::vector<char>(100, 'x'));
    (void)read_file(path);
  }
  EXPECT_EQ(wc.bytes_written, 100u);
  EXPECT_EQ(wc.bytes_read, 100u);
  std::filesystem::remove(path);
}

TEST(Serialize, EmptyFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sdb_serialize_empty.bin")
          .string();
  write_file(path, {});
  EXPECT_TRUE(read_file(path).empty());
  std::filesystem::remove(path);
}

// --- checksummed records: sealed buffers and frames -------------------------
// FNV-1a turns any change to one byte of the payload into a different
// checksum, so every single-byte flip must be rejected, not just most.

std::vector<char> bytes_of(std::string_view s) { return {s.begin(), s.end()}; }

std::string text_of(std::span<const char> s) { return {s.begin(), s.end()}; }

/// `payload | u64 fnv1a(payload)`, sealed the way every writer seals it.
std::vector<char> sealed(std::string_view payload) {
  BinaryWriter w;
  w.write_bytes(payload.data(), payload.size());
  w.write_u64(fnv1a(payload.data(), payload.size()));
  return w.take();
}

TEST(SealedBuffer, UnsealReturnsThePayloadInPlace) {
  const std::vector<char> buf = sealed("sealed payload");
  const auto payload = unseal(buf);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(text_of(*payload), "sealed payload");
  EXPECT_EQ(payload->data(), buf.data());
  const std::vector<char> empty = sealed("");
  ASSERT_EQ(empty.size(), sizeof(u64));
  const auto none = unseal(empty);
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());
}

TEST(SealedBuffer, EveryTruncationAndByteFlipIsRejected) {
  const std::vector<char> buf = sealed("sealed payload");
  for (size_t n = 0; n < buf.size(); ++n) {
    EXPECT_FALSE(unseal(std::span<const char>(buf.data(), n)).has_value())
        << "truncated to " << n << " bytes";
  }
  for (size_t i = 0; i < buf.size(); ++i) {
    for (int mask = 1; mask < 256; ++mask) {
      std::vector<char> bad = buf;
      bad[i] = static_cast<char>(bad[i] ^ mask);
      EXPECT_FALSE(unseal(bad).has_value())
          << "byte " << i << " xor " << mask;
    }
  }
}

TEST(Frame, LayoutIsLengthPayloadChecksum) {
  BinaryWriter w;
  put_frame(w, bytes_of("framed"));
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.read_u32(), 6u);
  EXPECT_EQ(std::string(w.buffer().data() + r.position(), 6), "framed");
  BinaryReader trailer(w.buffer().data() + 4 + 6, sizeof(u64));
  EXPECT_EQ(trailer.read_u64(), fnv1a("framed", 6));
  EXPECT_EQ(w.size(), 4u + 6u + 8u);
}

TEST(Frame, BackToBackFramesReadInOrder) {
  BinaryWriter w;
  put_frame(w, bytes_of("first"));
  put_frame(w, bytes_of(""));
  put_frame(w, bytes_of("the third frame"));
  const std::vector<char>& buf = w.buffer();
  size_t pos = 0;
  std::vector<std::string> read;
  while (const auto payload = next_frame(buf, pos)) {
    read.push_back(text_of(*payload));
  }
  EXPECT_EQ(read, (std::vector<std::string>{"first", "", "the third frame"}));
  EXPECT_EQ(pos, buf.size());

  // A corrupt second frame stops the reader at the end of the first.
  std::vector<char> bad = buf;
  const size_t first_end = 4 + 5 + 8;
  bad[first_end + 4] = static_cast<char>(bad[first_end + 4] ^ 0x40);
  pos = 0;
  ASSERT_TRUE(next_frame(bad, pos).has_value());
  EXPECT_EQ(pos, first_end);
  EXPECT_FALSE(next_frame(bad, pos).has_value());
  EXPECT_EQ(pos, first_end);
}

TEST(Frame, EveryTruncationAndByteFlipIsRejectedInPlace) {
  BinaryWriter w;
  put_frame(w, bytes_of("framed payload"));
  const std::vector<char> frame = w.take();
  for (size_t n = 0; n < frame.size(); ++n) {
    size_t pos = 0;
    EXPECT_FALSE(
        next_frame(std::span<const char>(frame.data(), n), pos).has_value())
        << "truncated to " << n << " bytes";
    EXPECT_EQ(pos, 0u);
  }
  for (size_t i = 0; i < frame.size(); ++i) {
    for (int mask = 1; mask < 256; ++mask) {
      std::vector<char> bad = frame;
      bad[i] = static_cast<char>(bad[i] ^ mask);
      size_t pos = 0;
      EXPECT_FALSE(next_frame(bad, pos).has_value())
          << "byte " << i << " xor " << mask;
      EXPECT_EQ(pos, 0u);
    }
  }
}

// --- partial-cluster wire format (what the job checkpoint persists) --------
// A checkpointed record is replayed byte-for-byte into the merge on resume,
// so the round trip must be exact for every shape a partition can produce
// (the edge-case cluster shapes also run through both codecs in
// test_codec's CodecRoundTrip).

void expect_equal(const dbscan::PartialCluster& a,
                  const dbscan::PartialCluster& b) {
  EXPECT_EQ(a.uid, b.uid);
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.members, b.members);
  EXPECT_EQ(a.seeds, b.seeds);
}

/// Ships `pc` as the one cluster of its partition's result through
/// to_bytes() and back.
dbscan::PartialCluster round_trip(const dbscan::PartialCluster& pc) {
  dbscan::LocalClusterResult result;
  result.partition = pc.partition;
  result.clusters = {pc};
  dbscan::LocalClusterResult back =
      dbscan::local_result_from_bytes(dbscan::to_bytes(result));
  EXPECT_EQ(back.partition, pc.partition);
  EXPECT_EQ(back.clusters.size(), 1u);
  return back.clusters.empty() ? dbscan::PartialCluster{}
                               : std::move(back.clusters.front());
}

TEST(PartialClusterSerialize, SeedsAtPartitionBoundariesRoundTrip) {
  dbscan::PartialCluster pc;
  pc.partition = 2;
  pc.uid = dbscan::PartialCluster::make_uid(2, 7);
  pc.members = {10, 11, 12};
  // SEEDs reference points OWNED BY OTHER PARTITIONS — including ids at the
  // boundary of the id space (first point, last point).
  pc.seeds = {0, 9, 13, 999'999'999};
  expect_equal(round_trip(pc), pc);
}

TEST(PartialClusterSerialize, EmptyClusterRoundTrips) {
  dbscan::PartialCluster pc;
  pc.partition = 0;
  pc.uid = dbscan::PartialCluster::make_uid(0, 0);
  expect_equal(round_trip(pc), pc);
}

TEST(PartialClusterSerialize, MaxUidRoundTrips) {
  // make_uid packs (partition << 32) | local index; saturate both halves.
  dbscan::PartialCluster pc;
  pc.partition = static_cast<PartitionId>(0x7fffffff);
  pc.uid = dbscan::PartialCluster::make_uid(pc.partition, 0xffffffffu);
  pc.members = {1};
  const dbscan::PartialCluster back = round_trip(pc);
  expect_equal(back, pc);
  EXPECT_EQ(back.uid >> 32, 0x7fffffffu);
  EXPECT_EQ(back.uid & 0xffffffffu, 0xffffffffu);
}

TEST(PartialClusterSerialize, AllNoiseLocalResultRoundTrips) {
  // A partition that found nothing: no clusters, every local point noise.
  dbscan::LocalClusterResult result;
  result.partition = 3;
  result.noise = {30, 31, 32, 33};
  const dbscan::LocalClusterResult back =
      dbscan::local_result_from_bytes(dbscan::to_bytes(result));
  EXPECT_EQ(back.partition, result.partition);
  EXPECT_TRUE(back.clusters.empty());
  EXPECT_TRUE(back.core_points.empty());
  EXPECT_EQ(back.noise, result.noise);
}

TEST(PartialClusterSerialize, FullLocalResultRoundTrips) {
  dbscan::LocalClusterResult result;
  result.partition = 1;
  for (u32 i = 0; i < 3; ++i) {
    dbscan::PartialCluster pc;
    pc.partition = 1;
    pc.uid = dbscan::PartialCluster::make_uid(1, i);
    pc.members = {static_cast<PointId>(i * 10), static_cast<PointId>(i * 10 + 1)};
    pc.seeds = {static_cast<PointId>(100 + i)};
    result.clusters.push_back(std::move(pc));
  }
  result.core_points = {10, 11, 20, 21};
  result.noise = {5};
  const dbscan::LocalClusterResult back =
      dbscan::local_result_from_bytes(dbscan::to_bytes(result));
  EXPECT_EQ(back.partition, result.partition);
  ASSERT_EQ(back.clusters.size(), 3u);
  for (size_t i = 0; i < 3; ++i) expect_equal(back.clusters[i], result.clusters[i]);
  EXPECT_EQ(back.core_points, result.core_points);
  EXPECT_EQ(back.noise, result.noise);
}

}  // namespace
}  // namespace sdb
