#include "core/partial_cluster.hpp"

namespace sdb::dbscan {

namespace {

/// Raw framing sentinel: "SDB2" with the sign bit.
constexpr i64 kRawMagicV2 = -0x53444232;

/// Fewest bytes one cluster adds to a raw blob: uid, partition, and the
/// member and seed list lengths.
constexpr u64 kRawClusterMinBytes = 4 * sizeof(u64);

/// Bytes write_i64_vec(ids) appends: the u64 length, then the ids.
u64 id_list_bytes(const std::vector<PointId>& ids) {
  return sizeof(u64) + ids.size() * sizeof(i64);
}

/// Exact length of to_bytes(result).
u64 raw_wire_size(const LocalClusterResult& result) {
  u64 bytes = sizeof(i64) + sizeof(u32) + sizeof(i64) + sizeof(u64) +
              id_list_bytes(result.core_points) + id_list_bytes(result.noise);
  for (const auto& c : result.clusters) {
    bytes += sizeof(u64) + sizeof(i64) + id_list_bytes(c.members) +
             id_list_bytes(c.seeds);
  }
  return bytes;
}

}  // namespace

std::string to_bytes(const LocalClusterResult& result) {
  // Header, members-only cluster records, per-point facts, then each
  // cluster's seed list in clusters order. Written into one string of the
  // exact final size: no regrowth, and no copy on return.
  const u64 size = raw_wire_size(result);
  StringWriter w;
  w.reserve(size);
  w.write_i64(kRawMagicV2);
  w.write_u32(kLocalResultWireV2);
  w.write_i64(result.partition);
  w.write_u64(result.clusters.size());
  for (const auto& c : result.clusters) {
    w.write_u64(c.uid);
    w.write_i64(c.partition);
    w.write_i64_vec(c.members);
  }
  w.write_i64_vec(result.core_points);
  w.write_i64_vec(result.noise);
  for (const auto& c : result.clusters) {
    w.write_i64_vec(c.seeds);
  }
  SDB_CHECK(w.size() == size, "LocalClusterResult: wire size mismatch");
  return w.take();
}

LocalClusterResult deserialize_local_result(BinaryReader& r) {
  LocalClusterResult result;
  SDB_CHECK(r.read_i64() == kRawMagicV2, "LocalClusterResult: bad wire magic");
  const u32 version = r.read_u32();
  SDB_CHECK(version == kLocalResultWireV2,
            "LocalClusterResult: unknown wire version");
  result.partition = static_cast<PartitionId>(r.read_i64());
  const u64 n = r.read_u64();
  SDB_CHECK(n <= r.remaining() / kRawClusterMinBytes,
            "LocalClusterResult: truncated input");
  result.clusters.reserve(n);
  for (u64 i = 0; i < n; ++i) {
    PartialCluster pc;
    pc.uid = r.read_u64();
    pc.partition = static_cast<PartitionId>(r.read_i64());
    pc.members = r.read_i64_vec();
    result.clusters.push_back(std::move(pc));
  }
  result.core_points = r.read_i64_vec();
  result.noise = r.read_i64_vec();
  for (u64 i = 0; i < n; ++i) {
    result.clusters[i].seeds = r.read_i64_vec();
  }
  return result;
}

LocalClusterResult local_result_from_bytes(const std::string& bytes) {
  BinaryReader r(bytes.data(), bytes.size());
  LocalClusterResult result = deserialize_local_result(r);
  SDB_CHECK(r.remaining() == 0, "LocalClusterResult: trailing bytes");
  return result;
}

}  // namespace sdb::dbscan
