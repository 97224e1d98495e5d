// Partial clusters and SEEDs — the paper's central data structure.
//
// Each executor clusters only its own points; whenever its BFS frontier
// reaches a point owned by another partition, that point is recorded as a
// SEED instead of being expanded (Algorithm 3). A SEED is a *marker*: at
// merge time (Algorithm 4) a SEED appearing as a regular member of another
// partition's partial cluster identifies the "master" cluster to merge with.
#pragma once

#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/serialize.hpp"

namespace sdb::dbscan {

struct PartialCluster {
  /// Globally unique id: (partition << 32) | local index. Figure 4's "c[0]",
  /// "c[5]" labels.
  u64 uid = 0;
  PartitionId partition = 0;
  /// Points owned by `partition` that belong to this cluster ("regular
  /// elements" in the paper's words).
  std::vector<PointId> members;
  /// Foreign points recorded by Algorithm 3 (paper: "integers in squares").
  std::vector<PointId> seeds;

  [[nodiscard]] static u64 make_uid(PartitionId partition, u32 local_index) {
    return (static_cast<u64>(static_cast<u32>(partition)) << 32) | local_index;
  }

  [[nodiscard]] u64 byte_size() const {
    return sizeof(uid) + sizeof(partition) +
           (members.size() + seeds.size()) * sizeof(PointId) + 2 * sizeof(u64);
  }
};

/// The one wire layout both codecs write and read (see to_bytes()): a magic
/// value and this version, the member lists, then every cluster's seed list
/// in one trailing section. The job fingerprint folds the version in
/// (core/job_identity.hpp), so a checkpoint record in any other layout is
/// recomputed on resume rather than decoded; the readers reject every other
/// magic value or version.
inline constexpr u32 kLocalResultWireV2 = 2;

/// Everything one executor ships back through the accumulator: its partial
/// clusters plus the per-point facts the driver needs for a sound merge
/// (which local points are core, which are locally noise).
struct LocalClusterResult {
  PartitionId partition = 0;
  std::vector<PartialCluster> clusters;
  std::vector<PointId> core_points;  ///< local points with >= minpts neighbors
  std::vector<PointId> noise;        ///< local points marked noise

  [[nodiscard]] u64 byte_size() const {
    u64 bytes = sizeof(partition) + 3 * sizeof(u64);
    for (const auto& c : clusters) bytes += c.byte_size();
    bytes += (core_points.size() + noise.size()) * sizeof(PointId);
    return bytes;
  }
};

/// Binary round trip: the raw codec (core/codec.hpp). to_bytes() writes one
/// string of the exact size; deserialize_local_result() reads one result
/// from `r`, and local_result_from_bytes() also rejects bytes after the
/// last id list.
LocalClusterResult deserialize_local_result(BinaryReader& r);
std::string to_bytes(const LocalClusterResult& result);
LocalClusterResult local_result_from_bytes(const std::string& bytes);

}  // namespace sdb::dbscan
