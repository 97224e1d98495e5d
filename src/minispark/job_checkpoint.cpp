#include "minispark/job_checkpoint.hpp"

#include <filesystem>

#include "fault/injection.hpp"
#include "util/fnv.hpp"
#include "util/serialize.hpp"

namespace sdb::minispark {

namespace fs = std::filesystem;

namespace {

constexpr u64 kRecordMagic = 0x5344424a434b5054ull;  // "SDBJCKPT"

/// Record layout: magic, fingerprint, partition, blob (length-prefixed),
/// FNV-1a trailer over everything before it.
std::vector<char> encode_record(u64 fingerprint, u32 partition,
                                const std::string& blob) {
  BinaryWriter w;
  w.write_u64(kRecordMagic);
  w.write_u64(fingerprint);
  w.write_u32(partition);
  w.write_string(blob);
  w.write_u64(fnv1a(w.buffer().data(), w.buffer().size()));
  return w.take();
}

/// Parse + verify one record file. Returns false on any inconsistency —
/// wrong magic, wrong fingerprint, truncation, checksum mismatch.
bool decode_record(const std::vector<char>& buf, u64 fingerprint,
                   u32* partition, std::string* blob) {
  const auto payload = unseal(buf);
  // magic + fingerprint + partition + blob length
  const size_t min_size = 3 * sizeof(u64) + sizeof(u32);
  if (!payload || payload->size() < min_size) return false;
  BinaryReader r(payload->data(), payload->size());
  if (r.read_u64() != kRecordMagic) return false;
  if (r.read_u64() != fingerprint) return false;
  *partition = r.read_u32();
  const u64 len = r.read_u64();
  if (len != r.remaining()) return false;
  blob->assign(payload->data() + r.position(), len);
  return true;
}

}  // namespace

JobCheckpoint::JobCheckpoint(std::string dir, u64 fingerprint, bool resume)
    : dir_(std::move(dir)), fingerprint_(fingerprint) {
  SDB_CHECK(!dir_.empty(), "JobCheckpoint needs a directory");
  fs::create_directories(dir_);
  recover(resume);
}

std::string JobCheckpoint::record_path(u32 partition) const {
  return (fs::path(dir_) / ("part_" + std::to_string(partition) + ".ckpt"))
      .string();
}

void JobCheckpoint::recover(bool resume) {
  std::vector<fs::path> doomed;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".tmp")) {
      doomed.push_back(entry.path());  // crashed mid-stage; never committed
      continue;
    }
    if (name.rfind("part_", 0) != 0 || !name.ends_with(".ckpt")) continue;
    if (!resume) {
      doomed.push_back(entry.path());
      continue;
    }
    const std::vector<char> buf = read_file(entry.path().string());
    u32 partition = 0;
    std::string blob;
    if (decode_record(buf, fingerprint_, &partition, &blob)) {
      blobs_.emplace(partition, std::move(blob));
      ++recovered_;
    } else {
      // Torn record or another job's leftovers: worthless either way.
      doomed.push_back(entry.path());
      ++discarded_;
    }
  }
  for (const fs::path& p : doomed) fs::remove(p);
}

bool JobCheckpoint::has(u32 partition) const {
  const std::scoped_lock lock(mu_);
  return blobs_.contains(partition);
}

std::vector<u32> JobCheckpoint::completed() const {
  const std::scoped_lock lock(mu_);
  std::vector<u32> out;
  out.reserve(blobs_.size());
  for (const auto& [p, blob] : blobs_) out.push_back(p);
  return out;
}

std::string JobCheckpoint::load(u32 partition) const {
  const std::scoped_lock lock(mu_);
  const auto it = blobs_.find(partition);
  SDB_CHECK(it != blobs_.end(),
            "no checkpoint record for partition " + std::to_string(partition));
  return it->second;
}

void JobCheckpoint::save(u32 partition, const std::string& blob) {
  const std::scoped_lock lock(mu_);
  const std::vector<char> record = encode_record(fingerprint_, partition, blob);
  const std::string final_path = record_path(partition);
  const std::string tmp = final_path + ".tmp";
  if (SDB_INJECT("ckpt.crash.mid_write")) {
    // Crash at byte k of the record: the torn prefix reaches disk, the
    // process dies, recovery discards the tmp file.
    const std::vector<char> torn(record.begin(),
                                 record.begin() + record.size() / 2);
    write_file(tmp, torn);
    fault::trigger_crash("ckpt.crash.mid_write");
  }
  write_file(tmp, record);
  // Fully staged but not yet visible: dying here loses only this record.
  SDB_CRASH_POINT("ckpt.crash.before_rename");
  fs::rename(tmp, final_path);
  // Committed: dying here must preserve the record for recovery.
  SDB_CRASH_POINT("ckpt.crash.after_rename");
  blobs_.insert_or_assign(partition, blob);
  ++saves_;
}

void JobCheckpoint::commit() {
  const std::scoped_lock lock(mu_);
  for (const auto& [p, blob] : blobs_) {
    fs::remove(record_path(p));
  }
  blobs_.clear();
}

}  // namespace sdb::minispark
