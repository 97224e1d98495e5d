#include "replica/wal_ship.hpp"

#include <cstring>
#include <utility>

#include "fault/injection.hpp"
#include "util/serialize.hpp"

namespace sdb::replica {

std::vector<char> encode_batch(const WalBatch& batch) {
  BinaryWriter payload;
  payload.write_u64(batch.term);
  payload.write_u64(batch.generation);
  payload.write_u64(batch.start_seq);
  payload.write_u64(batch.committed_epoch);
  payload.write_u32(static_cast<u32>(batch.records.size()));
  for (const serve::WalRecord& rec : batch.records) {
    const std::vector<char> bytes = serve::encode_wal_payload(rec);
    payload.write_u32(static_cast<u32>(bytes.size()));
    payload.write_bytes(bytes.data(), bytes.size());
  }
  BinaryWriter frame;
  put_frame(frame, payload.buffer());
  return frame.take();
}

bool decode_batch(const std::vector<char>& frame, WalBatch* batch) {
  // One whole frame (util/serialize.hpp), nothing after it. A checksum
  // detects damage, not a sender other than encode_batch, so the payload
  // must still hold the header (four u64s and a u32 count) and each record.
  size_t end = 0;
  const auto frame_payload = next_frame(frame, end);
  if (!frame_payload || end != frame.size()) return false;
  const char* payload = frame_payload->data();
  const size_t len = frame_payload->size();
  if (len < 4 * sizeof(u64) + sizeof(u32)) return false;

  BinaryReader r(payload, len);
  batch->term = r.read_u64();
  batch->generation = r.read_u64();
  batch->start_seq = r.read_u64();
  batch->committed_epoch = r.read_u64();
  const u32 count = r.read_u32();
  size_t off = r.position();
  // Each record carries a u32 length prefix: a count the payload cannot
  // hold is rejected before it sizes the reservation.
  if (count > (len - off) / sizeof(u32)) return false;
  batch->records.clear();
  batch->records.reserve(count);
  for (u32 i = 0; i < count; ++i) {
    if (len - off < sizeof(u32)) return false;
    u32 rec_len = 0;
    std::memcpy(&rec_len, payload + off, sizeof(rec_len));
    off += sizeof(rec_len);
    if (rec_len > len - off) return false;
    serve::WalRecord rec;
    if (!serve::decode_wal_payload(payload + off, rec_len, &rec)) return false;
    batch->records.push_back(std::move(rec));
    off += rec_len;
  }
  return off == len;
}

void ShipTransport::send(std::vector<char> frame) {
  ++stats_.sent;
  if (SDB_INJECT("replica.ship.drop")) {
    ++stats_.dropped;
    return;
  }
  const bool duplicate = SDB_INJECT("replica.ship.duplicate");
  if (SDB_INJECT("replica.ship.corrupt") && !frame.empty()) {
    // Flip one payload byte; the frame must now fail its checksum at the
    // applier. (Duplicates copy the corruption — both copies are rejected,
    // and the retransmit ships the range again intact.)
    frame[frame.size() / 2] = static_cast<char>(frame[frame.size() / 2] ^ 0x20);
    ++stats_.corrupted;
  }
  if (duplicate) {
    queue_.push_back(frame);
    ++stats_.duplicated;
  }
  queue_.push_back(std::move(frame));
  if (SDB_INJECT("replica.ship.reorder") && queue_.size() >= 2) {
    std::swap(queue_[queue_.size() - 1], queue_[queue_.size() - 2]);
    ++stats_.reordered;
  }
}

std::optional<std::vector<char>> ShipTransport::receive() {
  if (queue_.empty()) return std::nullopt;
  std::vector<char> frame = std::move(queue_.front());
  queue_.pop_front();
  ++stats_.delivered;
  return frame;
}

}  // namespace sdb::replica
