#include "dfs/mini_dfs.hpp"

#include <algorithm>
#include <filesystem>

#include "fault/injection.hpp"
#include "util/counters.hpp"
#include "util/fnv.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace sdb::dfs {

namespace fs = std::filesystem;

namespace {

constexpr u64 kManifestMagic = 0x5344424d414e4946ull;  // "SDBMANIF"

}  // namespace

MiniDfs::MiniDfs(std::string root, u64 block_size, u32 datanodes,
                 u32 replication, Durability durability)
    : root_(std::move(root)),
      block_size_(block_size),
      datanodes_(datanodes),
      replication_(std::min(replication, datanodes)),
      durability_(durability),
      dead_(datanodes, false) {
  SDB_CHECK(block_size_ > 0, "block size must be positive");
  SDB_CHECK(datanodes_ > 0, "need at least one datanode");
  fs::create_directories(fs::path(root_) / "blocks");
  if (durability_ == Durability::kDurable) {
    load_manifest();
    gc_orphans();
  }
}

void MiniDfs::fail_datanode(u32 node) {
  SDB_CHECK(node < datanodes_, "no such datanode");
  dead_[node] = true;
}

void MiniDfs::recover_datanode(u32 node) {
  SDB_CHECK(node < datanodes_, "no such datanode");
  dead_[node] = false;
}

bool MiniDfs::datanode_alive(u32 node) const {
  SDB_CHECK(node < datanodes_, "no such datanode");
  return !dead_[node];
}

void MiniDfs::check_replicas(const BlockInfo& block) const {
  bool first = true;
  for (const u32 replica : block.replicas) {
    // An injected replica fault takes the primary out for this one read,
    // exercising the same failover path as a really-dead datanode.
    const bool injected_dead = first && SDB_INJECT("dfs.read.replica");
    if (!dead_[replica] && !injected_dead) {
      if (!first) {
        // The primary was dead; a later replica served.
        failovers_.fetch_add(1);
        counters::dfs_failovers(1);
      }
      return;
    }
    first = false;
  }
  SDB_CHECK(false, "block " + std::to_string(block.id) +
                       " unavailable: all replicas on dead datanodes");
}

std::string MiniDfs::block_path(u64 block_id) const {
  return (fs::path(root_) / "blocks" / ("blk_" + std::to_string(block_id)))
      .string();
}

void MiniDfs::read_block_into(const BlockInfo& block, char* dst) const {
  check_replicas(block);
  RetryStats stats;
  const size_t size = retry_call(
      io_retry_, block.id,
      [&] {
        if (SDB_INJECT("dfs.read.fail")) {
          throw DfsTransientError("injected read failure, block " +
                                  std::to_string(block.id));
        }
        if (SDB_INJECT("dfs.read.slow")) slow_reads_.fetch_add(1);
        return read_file_into(block_path(block.id), dst, block.size);
      },
      &stats);
  io_retries_.fetch_add(stats.retries);
  io_backoff_s_.fetch_add(stats.backoff_s);
  // fsync-order enforcement: a block whose bytes do not match its manifest
  // entry (torn write, external truncation) must never be read back as a
  // short-but-valid file. Retrying cannot heal physical corruption, so the
  // mismatch escapes immediately.
  if (size != block.size || fnv1a(dst, size) != block.checksum) {
    throw DfsTransientError("torn/corrupt block " + std::to_string(block.id) +
                            ": " + std::to_string(size) + " bytes vs " +
                            std::to_string(block.size) + " in manifest");
  }
}

void MiniDfs::write_block_data(const BlockInfo& block,
                               const std::vector<char>& data) {
  const std::string final_path = block_path(block.id);
  const std::string tmp = final_path + ".tmp";
  RetryStats stats;
  retry_call(
      io_retry_, block.id,
      [&] {
        if (SDB_INJECT("dfs.write.torn")) {
          // A real torn write: half the block lands on disk, then the
          // datanode "dies". The retry must overwrite it completely —
          // verify() confirms no torn block survives a successful write.
          const std::vector<char> torn(data.begin(),
                                       data.begin() + data.size() / 2);
          write_file(tmp, torn);
          ++torn_writes_;
          throw DfsTransientError("injected torn write, block " +
                                  std::to_string(block.id));
        }
        if (SDB_INJECT("dfs.crash.mid_block")) {
          // Crash at byte k: a prefix reaches the kernel, then the process
          // dies. The tmp file is never renamed, so recovery GCs it.
          const std::vector<char> torn(data.begin(),
                                       data.begin() + data.size() / 2);
          write_file(tmp, torn);
          fault::trigger_crash("dfs.crash.mid_block");
        }
        write_file(tmp, data);
        return 0;
      },
      &stats);
  fs::rename(tmp, final_path);
  io_retries_.fetch_add(stats.retries);
  io_backoff_s_.fetch_add(stats.backoff_s);
}

const FileInfo& MiniDfs::write(const std::string& path,
                               const std::string& contents) {
  // Re-create the block directory if it vanished since construction (e.g. an
  // external cleanup of the root between ctor and write); otherwise every
  // block write below would abort on a missing parent directory.
  fs::create_directories(fs::path(root_) / "blocks");
  // Stage the new version first: the previous version's blocks stay on disk
  // (and, in durable mode, published in the manifest) until the new catalog
  // entry publishes, so a crash anywhere in this function leaves exactly one
  // committed version readable.
  std::vector<u64> superseded;
  if (const auto it = catalog_.find(path); it != catalog_.end()) {
    for (const BlockInfo& block : it->second.blocks) {
      superseded.push_back(block.id);
    }
  }
  FileInfo info;
  info.path = path;
  info.size = contents.size();
  for (u64 offset = 0; offset < contents.size(); offset += block_size_) {
    BlockInfo block;
    block.id = next_block_id_++;
    block.size = std::min<u64>(block_size_, contents.size() - offset);
    block.checksum = fnv1a(contents.data() + offset, block.size);
    for (u32 r = 0; r < replication_; ++r) {
      block.replicas.push_back((next_replica_ + r) % datanodes_);
    }
    next_replica_ = (next_replica_ + 1) % datanodes_;
    const std::vector<char> data(contents.begin() + static_cast<long>(offset),
                                 contents.begin() +
                                     static_cast<long>(offset + block.size));
    write_block_data(block, data);
    info.blocks.push_back(std::move(block));
  }
  // All blocks staged and renamed into place; dying here must leave the OLD
  // version readable (the new blocks are orphans until the manifest says
  // otherwise).
  SDB_CRASH_POINT("dfs.crash.before_publish");
  // Zero-byte files still need a catalog entry.
  auto [it, inserted] = catalog_.insert_or_assign(path, std::move(info));
  (void)inserted;
  save_manifest();
  // Only after the publish point may the superseded version's blocks die.
  for (const u64 id : superseded) {
    fs::remove(block_path(id));
  }
  return it->second;
}

bool MiniDfs::exists(const std::string& path) const {
  return catalog_.contains(path);
}

const FileInfo& MiniDfs::stat(const std::string& path) const {
  const auto it = catalog_.find(path);
  SDB_CHECK(it != catalog_.end(), "no such DFS file: " + path);
  return it->second;
}

std::string MiniDfs::read(const std::string& path, unsigned threads) const {
  const FileInfo& info = stat(path);
  std::vector<size_t> offset(info.blocks.size() + 1, 0);
  for (size_t b = 0; b < info.blocks.size(); ++b) {
    offset[b + 1] = offset[b] + info.blocks[b].size;
  }
  std::string out(offset.back(), '\0');
  parallel_for(info.blocks.size(), threads, [&](size_t b) {
    read_block_into(info.blocks[b], out.data() + offset[b]);
  });
  return out;
}

std::vector<size_t> MiniDfs::verify(const std::string& path) const {
  const FileInfo& info = stat(path);
  std::vector<size_t> corrupt;
  for (size_t b = 0; b < info.blocks.size(); ++b) {
    const std::vector<char> data = read_file(block_path(info.blocks[b].id));
    if (data.size() != info.blocks[b].size ||
        fnv1a(data.data(), data.size()) != info.blocks[b].checksum) {
      corrupt.push_back(b);
    }
  }
  return corrupt;
}

void MiniDfs::remove(const std::string& path) {
  const auto it = catalog_.find(path);
  SDB_CHECK(it != catalog_.end(), "no such DFS file: " + path);
  std::vector<u64> ids;
  for (const BlockInfo& block : it->second.blocks) {
    ids.push_back(block.id);
  }
  catalog_.erase(it);
  // Publish the removal before deleting bytes: a crash in between leaves
  // orphaned blocks (GC'd at next open), never a manifest pointing at
  // deleted data.
  save_manifest();
  for (const u64 id : ids) {
    fs::remove(block_path(id));
  }
}

std::string MiniDfs::manifest_path() const {
  return (fs::path(root_) / "manifest").string();
}

void MiniDfs::save_manifest() {
  if (durability_ != Durability::kDurable) return;
  BinaryWriter w;
  w.write_u64(kManifestMagic);
  w.write_u64(next_block_id_);
  w.write_u32(next_replica_);
  w.write_u64(catalog_.size());
  for (const auto& [path, info] : catalog_) {
    w.write_string(path);
    w.write_u64(info.size);
    w.write_u64(info.blocks.size());
    for (const BlockInfo& block : info.blocks) {
      w.write_u64(block.id);
      w.write_u64(block.size);
      w.write_u64(block.checksum);
      w.write_u64(block.replicas.size());
      for (const u32 r : block.replicas) w.write_u32(r);
    }
  }
  w.write_u64(fnv1a(w.buffer().data(), w.buffer().size()));
  const std::string tmp = manifest_path() + ".tmp";
  write_file(tmp, w.buffer());
  // The rename IS the commit point: dying on either side of it leaves a
  // valid manifest (the previous one, or the one just staged).
  SDB_CRASH_POINT("dfs.crash.manifest_rename");
  fs::rename(tmp, manifest_path());
}

bool MiniDfs::load_manifest() {
  if (!fs::exists(manifest_path())) return false;
  const std::vector<char> buf = read_file(manifest_path());
  const auto payload = unseal(buf);
  if (!payload || payload->size() < 3 * sizeof(u64)) return false;
  BinaryReader r(payload->data(), payload->size());
  if (r.read_u64() != kManifestMagic) return false;
  next_block_id_ = r.read_u64();
  next_replica_ = r.read_u32() % std::max<u32>(1, datanodes_);
  const u64 nfiles = r.read_u64();
  for (u64 f = 0; f < nfiles; ++f) {
    FileInfo info;
    info.path = r.read_string();
    info.size = r.read_u64();
    const u64 nblocks = r.read_u64();
    bool intact = true;
    for (u64 b = 0; b < nblocks; ++b) {
      BlockInfo block;
      block.id = r.read_u64();
      block.size = r.read_u64();
      block.checksum = r.read_u64();
      const u64 nreplicas = r.read_u64();
      for (u64 i = 0; i < nreplicas; ++i) {
        block.replicas.push_back(r.read_u32() % std::max<u32>(1, datanodes_));
      }
      // Verify the physical bytes against the manifest entry — a file with
      // any torn or missing block never recovers.
      if (intact) {
        const std::string bp = block_path(block.id);
        if (!fs::exists(bp)) {
          intact = false;
        } else {
          const std::vector<char> data = read_file(bp);
          intact = data.size() == block.size &&
                   fnv1a(data.data(), data.size()) == block.checksum;
        }
      }
      next_block_id_ = std::max(next_block_id_, block.id + 1);
      info.blocks.push_back(std::move(block));
    }
    if (intact) {
      ++recovered_files_;
      catalog_.insert_or_assign(info.path, std::move(info));
    } else {
      ++dropped_files_;
    }
  }
  return true;
}

void MiniDfs::gc_orphans() {
  std::vector<char> referenced;  // indexed by block id (dense, small)
  for (const auto& [path, info] : catalog_) {
    for (const BlockInfo& block : info.blocks) {
      if (block.id >= referenced.size()) referenced.resize(block.id + 1, 0);
      referenced[block.id] = 1;
    }
  }
  const fs::path blocks_dir = fs::path(root_) / "blocks";
  std::vector<fs::path> doomed;
  for (const auto& entry : fs::directory_iterator(blocks_dir)) {
    // Staged and unreferenced blocks go; names the DFS does not write stay.
    const std::string name = entry.path().filename().string();
    if (file_number(name, "blk_", ".tmp")) {
      doomed.push_back(entry.path());
    } else if (const auto id = file_number(name, "blk_", "")) {
      if (*id >= referenced.size() || !referenced[*id]) {
        doomed.push_back(entry.path());
      }
    }
  }
  for (const fs::path& p : doomed) {
    fs::remove(p);
    ++orphans_collected_;
  }
}

}  // namespace sdb::dfs
