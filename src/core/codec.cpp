#include "core/codec.hpp"

#include "util/counters.hpp"
#include "util/varint.hpp"

namespace sdb::dbscan {

const char* codec_name(Codec codec) {
  switch (codec) {
    case Codec::kRaw: return "raw";
    case Codec::kCompact: return "compact";
  }
  return "?";
}

namespace {

/// Compact framing sentinel: "SDB2" << 32.
constexpr u64 kCompactMagicV2 = 0x53444232ull << 32;

/// Fewest bytes one cluster adds to a compact blob: one varint each for its
/// uid and its member and seed list lengths.
constexpr size_t kCompactClusterMinBytes = 3;

std::string encode_compact(const LocalClusterResult& result) {
  // Header, members-only cluster records, per-point facts, then each
  // cluster's seed list in clusters order (sorted/delta/varint id lists).
  std::vector<char> out;
  put_varint(out, kCompactMagicV2);
  put_varint(out, kLocalResultWireV2);
  put_varint(out, static_cast<u64>(result.partition));
  put_varint(out, result.clusters.size());
  for (const PartialCluster& pc : result.clusters) {
    put_varint(out, pc.uid);
    put_id_list(out, pc.members);
  }
  put_id_list(out, result.core_points);
  put_id_list(out, result.noise);
  for (const PartialCluster& pc : result.clusters) {
    put_id_list(out, pc.seeds);
  }
  return std::string(out.data(), out.size());
}

LocalClusterResult decode_compact(const std::string& bytes) {
  LocalClusterResult result;
  size_t pos = 0;
  const char* data = bytes.data();
  const size_t size = bytes.size();
  SDB_CHECK(get_varint(data, size, pos) == kCompactMagicV2,
            "compact codec: bad wire magic");
  const u64 version = get_varint(data, size, pos);
  SDB_CHECK(version == kLocalResultWireV2,
            "compact codec: unknown wire version");
  result.partition = static_cast<PartitionId>(get_varint(data, size, pos));
  const u64 n = get_varint(data, size, pos);
  SDB_CHECK(n <= (size - pos) / kCompactClusterMinBytes,
            "compact codec: truncated input");
  result.clusters.reserve(n);
  for (u64 i = 0; i < n; ++i) {
    PartialCluster pc;
    pc.uid = get_varint(data, size, pos);
    pc.partition = result.partition;
    pc.members = get_id_list(data, size, pos);
    result.clusters.push_back(std::move(pc));
  }
  result.core_points = get_id_list(data, size, pos);
  result.noise = get_id_list(data, size, pos);
  for (u64 i = 0; i < n; ++i) {
    result.clusters[i].seeds = get_id_list(data, size, pos);
  }
  SDB_CHECK(pos == size, "compact codec: trailing bytes");
  return result;
}

}  // namespace

std::string encode(const LocalClusterResult& result, Codec codec) {
  std::string bytes;
  switch (codec) {
    case Codec::kRaw: bytes = to_bytes(result); break;
    case Codec::kCompact: bytes = encode_compact(result); break;
  }
  counters::codec_bytes(bytes.size());
  return bytes;
}

LocalClusterResult decode(const std::string& bytes, Codec codec) {
  counters::codec_bytes(bytes.size());
  switch (codec) {
    case Codec::kRaw: return local_result_from_bytes(bytes);
    case Codec::kCompact: return decode_compact(bytes);
  }
  SDB_CHECK(false, "unknown codec");
  return {};
}

}  // namespace sdb::dbscan
