// WAL shipping wire format + the fault-injectable transport between a
// primary's relay and a follower's applier.
//
// A shipped batch is a run of consecutive stream records plus the
// coordinates that make it self-describing on an unreliable channel:
//
//   term            — the shipping primary's election term. An applier
//                     rejects batches from a stale term (fencing: a deposed
//                     primary's in-flight frames cannot rewrite a follower
//                     that already follows its successor).
//   generation      — WAL generation the records belong to (compaction
//                     coordinate; see serve/registry_wal.hpp).
//   start_seq       — stream seq of records.front() within that generation.
//   committed_epoch — the primary's published epoch at ship time
//                     (piggybacked watermark, observability only).
//
// A batch travels as one frame, the util/serialize.hpp frame the on-disk
// WAL writes per record, so one checksum routine covers disk and wire:
// u32 len | payload | u64 fnv1a(payload), where the payload nests each
// record's own `encode_wal_payload` bytes. A frame that fails its checksum
// is rejected whole — exactly like a torn disk record.
//
// ShipTransport models the channel: an in-order queue of frames with four
// injectable failure modes (fault/injection.hpp sites):
//
//   replica.ship.drop       frame vanishes         (retransmit must cover)
//   replica.ship.duplicate  frame delivered twice  (applier must dedup)
//   replica.ship.reorder    frame swaps with its in-flight predecessor
//   replica.ship.corrupt    one payload byte flips (checksum must reject)
//
// The relay re-ships from the follower's applied cursor every pump, so a
// dropped frame is simply shipped again — progress needs no acks or nacks,
// only the cursor (tarantool-style relay/applier pairing).
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "serve/registry_wal.hpp"
#include "util/common.hpp"

namespace sdb::replica {

struct WalBatch {
  u64 term = 0;
  u64 generation = 0;
  u64 start_seq = 0;
  u64 committed_epoch = 0;
  std::vector<serve::WalRecord> records;
};

/// Encode a batch into one checksummed frame (layout above).
std::vector<char> encode_batch(const WalBatch& batch);
/// Decode a frame; false on any framing/checksum/payload mismatch (the
/// caller counts it and drops the frame — retransmit re-covers the range).
bool decode_batch(const std::vector<char>& frame, WalBatch* batch);

class ShipTransport {
 public:
  struct Stats {
    u64 sent = 0;       ///< frames offered by the relay
    u64 delivered = 0;  ///< frames handed to the applier
    u64 dropped = 0;
    u64 duplicated = 0;
    u64 reordered = 0;
    u64 corrupted = 0;
  };

  /// Enqueue a frame, subject to the injected failure modes.
  void send(std::vector<char> frame);
  /// Dequeue the next in-flight frame (nullopt when the channel is idle).
  std::optional<std::vector<char>> receive();

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Drop all in-flight frames (failover: the old channel is abandoned).
  void clear() { queue_.clear(); }

 private:
  std::deque<std::vector<char>> queue_;
  Stats stats_;
};

}  // namespace sdb::replica
