// Byte-level goldens for everything the system checksums with FNV-1a: the
// files ClusterModel, JobCheckpoint, RegistryWal and MiniDfs write, the
// replication frame, and the digests derive_seed, FaultPlan, ClassifyCache
// and dataset_digest return. A file or frame is pinned by its length and an
// FNV-1a computed here by a loop that shares no code with the library, so a
// change to any stored, shipped or fingerprinted byte fails this suite.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/job_identity.hpp"
#include "dfs/mini_dfs.hpp"
#include "fault/fault_plan.hpp"
#include "minispark/job_checkpoint.hpp"
#include "replica/wal_ship.hpp"
#include "serve/classify_cache.hpp"
#include "serve/cluster_model.hpp"
#include "serve/registry_wal.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace sdb {
namespace {

namespace fs = std::filesystem;

struct Pin {
  u64 size = 0;
  u64 fnv = 0;
  bool operator==(const Pin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Pin& p) {
  return os << "{" << p.size << ", 0x" << std::hex << p.fnv << std::dec
            << "}";
}

Pin pin_of(const std::vector<char>& bytes) {
  u64 h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return {bytes.size(), h};
}

class DurableFormats : public ::testing::Test {
 protected:
  DurableFormats()
      : root_(fs::temp_directory_path() /
              ("sdb_durable_formats_p" + std::to_string(::getpid()))) {
    fs::remove_all(root_);
  }
  ~DurableFormats() override { fs::remove_all(root_); }

  [[nodiscard]] std::string dir(const char* name) const {
    return (root_ / name).string();
  }

  fs::path root_;
};

TEST_F(DurableFormats, BytesMatchGolden) {
  // ClusterModel::save: two clusters and one noise point in 2-d.
  {
    const PointSet points(2, {0.0, 0.0, 0.1, 0.0, 0.0, 0.1, 5.0, 5.0, 5.1,
                              5.0, 9.0, -3.0});
    dbscan::Clustering clustering;
    clustering.labels = {0, 0, 0, 1, 1, kNoise};
    clustering.num_clusters = 2;
    const std::vector<char> core_mask = {1, 1, 0, 1, 0, 0};
    const auto model = serve::ClusterModel::build(
        points, clustering, core_mask, dbscan::DbscanParams{0.25, 2});
    EXPECT_EQ(pin_of(model->save()), (Pin{316, 0xec0333a2ce5a774aull}))
        << "ClusterModel::save";
  }
  // JobCheckpoint: the committed part file, read before commit().
  {
    minispark::JobCheckpoint ckpt(dir("ckpt"), 0x5eedf00dcafeull,
                                  /*resume=*/false);
    ckpt.save(3, std::string("partition three's encoded result"));
    EXPECT_EQ(pin_of(read_file(dir("ckpt") + "/part_3.ckpt")),
              (Pin{68, 0x5b0270b35c1d105eull}))
        << "JobCheckpoint part_3.ckpt";
    ckpt.commit();
  }
  // RegistryWal: the log after one record of each type, then the snapshot
  // compaction writes.
  {
    serve::RegistryWal wal(dir("wal"));
    const double coords[3] = {1.5, -2.25, 3.0};
    wal.append_insert(coords);
    wal.append_remove(17);
    wal.append_publish(8);
    EXPECT_EQ(pin_of(read_file(dir("wal") + "/wal_0.log")),
              (Pin{92, 0x0996e0e312404a03ull}))
        << "RegistryWal wal_0.log";
    wal.compact("registry state at epoch 8", 8);
    EXPECT_EQ(pin_of(read_file(dir("wal") + "/snapshot_1")),
              (Pin{49, 0xd25b031a8fa8906dull}))
        << "RegistryWal snapshot_1";
  }
  // MiniDfs: the durable manifest after one file of five blocks.
  {
    dfs::MiniDfs dfs(dir("dfs"), 8, 4, 2, dfs::Durability::kDurable);
    dfs.write("/golden/input.txt",
              "0.5 1.5\n2.5 3.5\n4.5 5.5\n6.5 7.5\n8.5 9.");
    EXPECT_EQ(pin_of(read_file(dir("dfs") + "/manifest")),
              (Pin{277, 0x9967aa1967bdc455ull}))
        << "MiniDfs manifest";
  }
  // The replication frame of a batch holding all three record types.
  {
    replica::WalBatch batch;
    batch.term = 3;
    batch.generation = 2;
    batch.start_seq = 41;
    batch.committed_epoch = 9;
    serve::WalRecord ins;
    ins.type = serve::WalRecordType::kInsert;
    ins.coords = {1.5, -2.25, 3.0};
    serve::WalRecord rem;
    rem.type = serve::WalRecordType::kRemove;
    rem.point_id = 17;
    serve::WalRecord pub;
    pub.type = serve::WalRecordType::kPublish;
    pub.epoch = 8;
    batch.records = {ins, rem, pub};
    EXPECT_EQ(pin_of(replica::encode_batch(batch)),
              (Pin{116, 0x65b12f6513e8957bull}))
        << "replica::encode_batch";
  }
  // Digests that seed streams, fingerprint fault logs, key the classify
  // cache and fingerprint a job's input.
  EXPECT_EQ(derive_seed(42, "golden.stream"), 0x7d9c7b04241b8390ull);
  {
    fault::FaultPlan plan =
        fault::FaultPlan::parse("seed=21;a:p=0.4;b:every=2");
    for (int i = 0; i < 40; ++i) {
      (void)plan.should_fire("a");
      (void)plan.should_fire("b");
    }
    EXPECT_EQ(plan.log_digest(), 0x4efb6987dc2a8790ull);
  }
  {
    const std::vector<double> point = {0.5, -1.25, 3.0e10};
    EXPECT_EQ(serve::ClassifyCache::hash_point(point),
              0xedbae455e3e32decull);
  }
  EXPECT_EQ(dbscan::dataset_digest(PointSet(3, {0.5, 1.5, 2.5, -3.0, 4.0,
                                                1e-300})),
            0x002511e94b0f4309ull);
}

}  // namespace
}  // namespace sdb
