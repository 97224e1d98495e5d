#include "serve/registry_wal.hpp"

#include <charconv>
#include <cstring>
#include <filesystem>

#include "fault/injection.hpp"
#include "util/fnv.hpp"
#include "util/serialize.hpp"

namespace sdb::serve {

namespace fs = std::filesystem;

namespace {

constexpr u64 kSnapshotMagic = 0x534442574c534e50ull;  // "SDBWLSNP"

/// The generation in a file name `<prefix><digits><suffix>`, or nothing
/// when the name has another shape or the part between is not all digits
/// (a stray `snapshot_old` or `snapshot_2.bak` is not the WAL's).
std::optional<u64> generation_of(std::string_view name, std::string_view prefix,
                                 std::string_view suffix) {
  if (name.size() < prefix.size() + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix)) {
    return std::nullopt;
  }
  const char* first = name.data() + prefix.size();
  const char* last = name.data() + name.size() - suffix.size();
  u64 gen = 0;
  const auto [end, ec] = std::from_chars(first, last, gen);
  if (ec != std::errc() || end != last) return std::nullopt;
  return gen;
}

}  // namespace

std::vector<char> encode_wal_payload(const WalRecord& rec) {
  BinaryWriter w;
  w.write_u32(static_cast<u32>(rec.type));
  switch (rec.type) {
    case WalRecordType::kInsert:
      w.write_u32(static_cast<u32>(rec.coords.size()));
      for (const double c : rec.coords) w.write_f64(c);
      break;
    case WalRecordType::kRemove:
      w.write_i64(rec.point_id);
      break;
    case WalRecordType::kPublish:
      w.write_u64(rec.epoch);
      break;
  }
  return w.take();
}

bool decode_wal_payload(const char* data, size_t size, WalRecord* rec) {
  if (size < sizeof(u32)) return false;
  BinaryReader r(data, size);
  const u32 type = r.read_u32();
  switch (static_cast<WalRecordType>(type)) {
    case WalRecordType::kInsert: {
      if (r.remaining() < sizeof(u32)) return false;
      const u32 dim = r.read_u32();
      if (r.remaining() != static_cast<u64>(dim) * sizeof(double)) {
        return false;
      }
      rec->type = WalRecordType::kInsert;
      rec->coords.resize(dim);
      std::memcpy(rec->coords.data(), data + r.position(),
                  dim * sizeof(double));
      return true;
    }
    case WalRecordType::kRemove:
      if (r.remaining() != sizeof(i64)) return false;
      rec->type = WalRecordType::kRemove;
      rec->point_id = r.read_i64();
      return true;
    case WalRecordType::kPublish:
      if (r.remaining() != sizeof(u64)) return false;
      rec->type = WalRecordType::kPublish;
      rec->epoch = r.read_u64();
      return true;
  }
  return false;
}

RegistryWal::RegistryWal(std::string dir) : dir_(std::move(dir)) {
  if (in_memory()) return;  // nothing to recover, nothing to open
  fs::create_directories(dir_);
  open_generation();
  scan_log();
  // Append from the scanned (post-truncation) end.
  out_.open(log_path(generation_), std::ios::binary | std::ios::app);
  SDB_CHECK(out_.good(), "RegistryWal cannot open log for append");
}

std::string RegistryWal::log_path(u64 generation) const {
  return (fs::path(dir_) / ("wal_" + std::to_string(generation) + ".log"))
      .string();
}

std::string RegistryWal::snapshot_path(u64 generation) const {
  return (fs::path(dir_) / ("snapshot_" + std::to_string(generation)))
      .string();
}

void RegistryWal::open_generation() {
  // Pick the highest generation whose snapshot verifies; everything else —
  // older generations, tmp files, snapshots torn mid-write — is garbage.
  u64 best_gen = 0;
  u64 best_epoch = 0;
  std::string best_blob;
  bool have_snapshot = false;
  std::vector<std::pair<u64, fs::path>> snapshots;
  std::vector<fs::path> tmp_files;
  std::vector<std::pair<u64, fs::path>> logs;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".tmp")) {
      tmp_files.push_back(entry.path());
      continue;
    }
    if (const auto gen = generation_of(name, "snapshot_", "")) {
      snapshots.emplace_back(*gen, entry.path());
    } else if (const auto log_gen = generation_of(name, "wal_", ".log")) {
      logs.emplace_back(*log_gen, entry.path());
    }
  }
  for (const auto& [gen, path] : snapshots) {
    if (gen < best_gen && have_snapshot) continue;
    const std::vector<char> buf = read_file(path.string());
    // snapshot file = sealed(magic + epoch + blob bytes)
    const auto payload = unseal(buf);
    if (!payload || payload->size() < 2 * sizeof(u64)) continue;
    BinaryReader r(payload->data(), payload->size());
    if (r.read_u64() != kSnapshotMagic) continue;
    if (!have_snapshot || gen > best_gen) {
      best_gen = gen;
      best_epoch = r.read_u64();
      best_blob.assign(payload->data() + r.position(), r.remaining());
      have_snapshot = true;
    }
  }
  generation_ = best_gen;
  if (have_snapshot) {
    snapshot_ = std::move(best_blob);
    snapshot_epoch_ = best_epoch;
  }
  // GC: tmp files, snapshots that are not the winner, logs of other gens.
  for (const fs::path& p : tmp_files) {
    fs::remove(p);
    ++collected_files_;
  }
  for (const auto& [gen, path] : snapshots) {
    if (have_snapshot && gen == best_gen) continue;
    fs::remove(path);
    ++collected_files_;
  }
  for (const auto& [gen, path] : logs) {
    if (gen == generation_) continue;
    fs::remove(path);
    ++collected_files_;
  }
}

void RegistryWal::scan_log() {
  const std::string path = log_path(generation_);
  if (!fs::exists(path)) return;
  const std::vector<char> buf = read_file(path);
  size_t off = 0;
  while (true) {
    // A torn tail (a frame past EOF) or a corrupt record stops the scan.
    size_t next = off;
    const auto payload = next_frame(buf, next);
    WalRecord rec;
    if (!payload ||
        !decode_wal_payload(payload->data(), payload->size(), &rec)) {
      break;
    }
    records_.push_back(std::move(rec));
    off = next;
    ends_.push_back(off);
  }
  if (off < buf.size()) {
    // Torn or corrupt tail: make the on-disk log end exactly at the last
    // valid record so future scans never re-inspect the garbage.
    truncated_bytes_ = buf.size() - off;
    fs::resize_file(path, off);
  }
}

u64 RegistryWal::last_committed_epoch() const {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->type == WalRecordType::kPublish) return it->epoch;
  }
  return snapshot_epoch_;
}

void RegistryWal::truncate_to(size_t count) {
  const std::scoped_lock lock(mu_);
  SDB_CHECK(count <= records_.size(), "truncate_to beyond record count");
  if (count == records_.size()) return;
  records_.resize(count);
  if (in_memory()) {
    ends_.resize(count);
    return;
  }
  SDB_CHECK(!out_.is_open() || out_.tellp() >= 0, "log stream poisoned");
  const bool was_open = out_.is_open();
  if (was_open) out_.close();
  const u64 keep = count == 0 ? 0 : ends_[count - 1];
  fs::resize_file(log_path(generation_), keep);
  ends_.resize(count);
  if (was_open) {
    out_.open(log_path(generation_), std::ios::binary | std::ios::app);
    SDB_CHECK(out_.good(), "RegistryWal cannot reopen log after truncate");
  }
}

void RegistryWal::append_payload(const std::vector<char>& payload) {
  const std::scoped_lock lock(mu_);
  if (in_memory()) {
    const u64 prev = ends_.empty() ? 0 : ends_.back();
    ends_.push_back(prev + sizeof(u32) + payload.size() + sizeof(u64));
    ++appends_;
    return;
  }
  BinaryWriter w;
  put_frame(w, payload);
  const std::vector<char>& frame = w.buffer();
  if (SDB_INJECT("wal.crash.mid_append")) {
    // Crash at byte k of the append: a torn prefix reaches disk, the
    // process dies, and recovery truncates it.
    out_.write(frame.data(),
               static_cast<std::streamsize>(frame.size() / 2));
    out_.flush();
    fault::trigger_crash("wal.crash.mid_append");
  }
  SDB_CRASH_POINT("wal.crash.before_append");
  out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out_.flush();
  SDB_CHECK(out_.good(), "RegistryWal append failed");
  SDB_CRASH_POINT("wal.crash.after_append");
  const u64 prev = ends_.empty() ? 0 : ends_.back();
  ends_.push_back(prev + frame.size());
  ++appends_;
}

void RegistryWal::append_insert(std::span<const double> coords) {
  WalRecord rec;
  rec.type = WalRecordType::kInsert;
  rec.coords.assign(coords.begin(), coords.end());
  append_payload(encode_wal_payload(rec));
  const std::scoped_lock lock(mu_);
  records_.push_back(std::move(rec));
}

void RegistryWal::append_remove(i64 point_id) {
  WalRecord rec;
  rec.type = WalRecordType::kRemove;
  rec.point_id = point_id;
  append_payload(encode_wal_payload(rec));
  const std::scoped_lock lock(mu_);
  records_.push_back(rec);
}

void RegistryWal::append_publish(u64 epoch) {
  WalRecord rec;
  rec.type = WalRecordType::kPublish;
  rec.epoch = epoch;
  append_payload(encode_wal_payload(rec));
  const std::scoped_lock lock(mu_);
  records_.push_back(rec);
}

void RegistryWal::compact(const std::string& snapshot_blob, u64 epoch) {
  const std::scoped_lock lock(mu_);
  reset_generation_locked(generation_ + 1, snapshot_blob, epoch);
}

void RegistryWal::reset_generation(u64 generation,
                                   const std::string& snapshot_blob,
                                   u64 epoch) {
  const std::scoped_lock lock(mu_);
  reset_generation_locked(generation, snapshot_blob, epoch);
}

void RegistryWal::reset_generation_locked(u64 generation,
                                          const std::string& snapshot_blob,
                                          u64 epoch) {
  if (!in_memory()) {
    if (!snapshot_blob.empty()) {
      // Stage the snapshot, then commit it with one rename. A crash before
      // the rename leaves the current generation intact (the tmp is GC'd at
      // next open); a crash after it means the new snapshot wins and the
      // old generation is GC'd.
      BinaryWriter w;
      w.write_u64(kSnapshotMagic);
      w.write_u64(epoch);
      w.write_bytes(snapshot_blob.data(), snapshot_blob.size());
      w.write_u64(fnv1a(w.buffer().data(), w.buffer().size()));
      const std::string final_path = snapshot_path(generation);
      const std::string tmp = final_path + ".tmp";
      write_file(tmp, w.buffer());
      SDB_CRASH_POINT("wal.crash.snapshot_rename");
      fs::rename(tmp, final_path);
    }
    // The new generation is now authoritative: fresh empty log, stale
    // generations deleted.
    if (out_.is_open()) out_.close();
    for (const auto& entry : fs::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name == "wal_" + std::to_string(generation) + ".log") continue;
      if (!snapshot_blob.empty() &&
          name == "snapshot_" + std::to_string(generation)) {
        continue;
      }
      fs::remove(entry.path());
    }
  }
  generation_ = generation;
  records_.clear();
  ends_.clear();
  if (snapshot_blob.empty()) {
    snapshot_.reset();
    snapshot_epoch_ = 0;
  } else {
    snapshot_ = snapshot_blob;
    snapshot_epoch_ = epoch;
  }
  if (!in_memory()) {
    out_.open(log_path(generation_), std::ios::binary | std::ios::trunc);
    SDB_CHECK(out_.good(), "RegistryWal cannot open rotated log");
  }
}

}  // namespace sdb::serve
