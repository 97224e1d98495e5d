#include "serve/model_registry.hpp"

#include <algorithm>

#include "fault/injection.hpp"
#include "util/serialize.hpp"

namespace sdb::serve {

ModelRegistry::ModelRegistry(Config config, int dim)
    : config_(config),
      dim_(dim),
      role_(config.role),
      incremental_(
          dbscan::IncrementalDbscan::Config{config.params,
                                            config.rebuild_threshold},
          dim) {
  SDB_CHECK(dim > 0, "registry dimension must be positive");
  const std::scoped_lock lock(writer_mu_);
  // Followers always keep a stream log (in-memory when wal_dir is empty) so
  // they can re-ship the stream after a promotion.
  const bool needs_wal = !config_.wal_dir.empty() || config_.replicated ||
                         config_.role == RegistryRole::kFollower;
  if (needs_wal) {
    wal_ = std::make_unique<RegistryWal>(config_.wal_dir);
    recover_locked();
  } else {
    // Publish an empty snapshot so model() is never null.
    publish_locked();
  }
}

void ModelRegistry::recover_locked() {
  // Base state: the newest compaction snapshot, if any. The snapshot is
  // always taken at a publish boundary (compact() publishes first), so its
  // epoch is committed by construction.
  u64 committed_epoch = 0;
  if (wal_->snapshot().has_value()) {
    load_snapshot_locked(*wal_->snapshot(), &committed_epoch);
  }
  // Committed prefix: everything through the LAST kPublish marker. The
  // suffix was never part of a published snapshot — truncate it so no
  // future recovery can resurrect mutations this incarnation rejected.
  const std::vector<WalRecord>& recs = wal_->records();
  size_t committed = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].type == WalRecordType::kPublish) {
      committed = i + 1;
      committed_epoch = recs[i].epoch;
    }
  }
  wal_discarded_ = recs.size() - committed;
  // Replay straight into the incremental state: no re-appending, no
  // publish-cadence side effects. Insert order reproduces point ids
  // exactly, so logged remove ids stay valid.
  for (size_t i = 0; i < committed; ++i) {
    const WalRecord& rec = recs[i];
    switch (rec.type) {
      case WalRecordType::kInsert:
        incremental_.insert(rec.coords);
        ++wal_replayed_;
        break;
      case WalRecordType::kRemove:
        SDB_CHECK(incremental_.try_remove(rec.point_id),
                  "WAL replay: remove of a dead id (log corrupted?)");
        ++wal_replayed_;
        break;
      case WalRecordType::kPublish:
        break;  // markers position the commit point; nothing to apply
    }
  }
  wal_->truncate_to(committed);
  if (role_.load(std::memory_order_relaxed) == RegistryRole::kFollower) {
    // A follower's log must stay a byte prefix of the primary's stream, so
    // recovery republishes the committed epoch WITHOUT appending a fresh
    // marker (epoch 0 = empty model for a virgin follower).
    publish_as_locked(committed_epoch, /*log_marker=*/false);
    return;
  }
  // Republish exactly the last committed epoch (1 for a fresh log: the
  // initial empty-snapshot publish below behaves like first construction).
  if (committed_epoch > 0) {
    epoch_.store(committed_epoch - 1, std::memory_order_relaxed);
  }
  publish_locked();
}

void ModelRegistry::load_snapshot_locked(const std::string& blob, u64* epoch) {
  BinaryReader r(blob.data(), blob.size());
  const u32 dim = r.read_u32();
  SDB_CHECK(static_cast<int>(dim) == dim_,
            "registry snapshot dimension mismatch");
  *epoch = r.read_u64();
  const u64 id_space = r.read_u64();
  const u64 live = r.read_u64();
  // Live points only, (id, coords) in increasing id order. Ids skipped over
  // (removed, possibly reclaimed, before the snapshot was cut) are burned —
  // they report removed forever — so the restored id space lines up with
  // the source registry's and logged remove ids stay meaningful.
  std::vector<double> coords(dim);
  for (u64 i = 0; i < live; ++i) {
    const auto id = static_cast<PointId>(r.read_u64());
    for (u32 d = 0; d < dim; ++d) coords[d] = r.read_f64();
    incremental_.restore(id, coords);
  }
  incremental_.burn_ids(static_cast<PointId>(id_space));
}

std::string ModelRegistry::encode_snapshot_locked(u64 epoch) const {
  StringWriter w;
  w.write_u32(static_cast<u32>(dim_));
  w.write_u64(epoch);
  const auto view = incremental_.storage_view();
  w.write_u64(view.id_space);
  u64 live = 0;
  for (size_t row = 0; row < view.rows->size(); ++row) {
    live += view.removed[row] == 0 ? 1 : 0;
  }
  w.write_u64(live);
  for (size_t row = 0; row < view.rows->size(); ++row) {
    if (view.removed[row] != 0) continue;
    w.write_u64(static_cast<u64>(view.external_ids[row]));
    const auto p = (*view.rows)[static_cast<PointId>(row)];
    for (int d = 0; d < dim_; ++d) w.write_f64(p[static_cast<size_t>(d)]);
  }
  return w.take();
}

u64 ModelRegistry::compact() {
  const std::scoped_lock lock(writer_mu_);
  SDB_CHECK(wal_ != nullptr, "compact() requires wal_dir or replication");
  SDB_CHECK(role_.load(std::memory_order_relaxed) == RegistryRole::kPrimary,
            "compact() is a primary-side operation");
  // Publish first: the snapshot is then a committed state and the rotated
  // (empty) log needs no replay at all.
  const u64 e = publish_locked();
  wal_->compact(encode_snapshot_locked(e), e);
  return e;
}

ModelRegistry::StreamCursor ModelRegistry::replication_cursor() const {
  const std::scoped_lock lock(writer_mu_);
  SDB_CHECK(wal_ != nullptr, "replication_cursor() requires a stream log");
  return {wal_->generation(), wal_->record_count()};
}

ShipChunk ModelRegistry::ship_from(u64 generation, u64 seq,
                                   size_t max_records) const {
  const std::scoped_lock lock(writer_mu_);
  SDB_CHECK(wal_ != nullptr, "ship_from() requires a stream log");
  ShipChunk chunk;
  chunk.committed_epoch = epoch_.load(std::memory_order_relaxed);
  chunk.generation = wal_->generation();
  if (generation != wal_->generation() || seq > wal_->record_count()) {
    // The cursor predates the last compaction (or belongs to a different
    // stream entirely — a follower of a previous term's primary): hand the
    // follower this generation's base snapshot so it can restart the
    // stream at (generation, 0).
    chunk.need_snapshot = true;
    if (wal_->snapshot().has_value()) {
      chunk.snapshot_blob = *wal_->snapshot();
      chunk.snapshot_epoch = wal_->snapshot_epoch();
    }
    return chunk;
  }
  chunk.start_seq = seq;
  const std::vector<WalRecord>& recs = wal_->records();
  const size_t end = std::min(recs.size(), seq + max_records);
  chunk.records.assign(recs.begin() + static_cast<ptrdiff_t>(seq),
                       recs.begin() + static_cast<ptrdiff_t>(end));
  return chunk;
}

void ModelRegistry::apply_replicated(const WalRecord& rec) {
  const std::scoped_lock lock(writer_mu_);
  SDB_CHECK(role_.load(std::memory_order_relaxed) == RegistryRole::kFollower,
            "apply_replicated() on a non-follower");
  switch (rec.type) {
    case WalRecordType::kInsert:
      wal_->append_insert(rec.coords);
      incremental_.insert(rec.coords);
      ++mutations_;
      break;
    case WalRecordType::kRemove:
      // The primary validated the remove before logging it, and the
      // follower mirrors the primary's id space record-for-record, so the
      // id must be live here too.
      wal_->append_remove(rec.point_id);
      SDB_CHECK(incremental_.try_remove(rec.point_id),
                "replicated remove of an unknown id: stream misaligned");
      ++mutations_;
      break;
    case WalRecordType::kPublish:
      wal_->append_publish(rec.epoch);
      // The stream's own marker was just appended; publish without logging
      // a second one.
      publish_as_locked(rec.epoch, /*log_marker=*/false);
      break;
  }
}

void ModelRegistry::install_replica_snapshot(const std::string& blob,
                                             u64 generation) {
  const std::scoped_lock lock(writer_mu_);
  SDB_CHECK(role_.load(std::memory_order_relaxed) == RegistryRole::kFollower,
            "install_replica_snapshot() on a non-follower");
  // Drop all local state: the shipped snapshot becomes the whole world.
  incremental_ = dbscan::IncrementalDbscan(
      dbscan::IncrementalDbscan::Config{config_.params,
                                        config_.rebuild_threshold},
      dim_);
  u64 epoch = 0;
  if (!blob.empty()) load_snapshot_locked(blob, &epoch);
  wal_->reset_generation(generation, blob, epoch);
  publish_as_locked(epoch, /*log_marker=*/false);
}

u64 ModelRegistry::promote_to_primary() {
  const std::scoped_lock lock(writer_mu_);
  SDB_CHECK(role_.load(std::memory_order_relaxed) == RegistryRole::kFollower,
            "promote_to_primary() on a non-follower");
  role_.store(RegistryRole::kPrimary, std::memory_order_release);
  return epoch_.load(std::memory_order_relaxed);
}

bool ModelRegistry::write_available() {
  if (stalled_.load(std::memory_order_acquire) ||
      SDB_INJECT("serve.registry.stall")) {
    stall_rejections_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

PointId ModelRegistry::insert(std::span<const double> coords) {
  const std::scoped_lock lock(writer_mu_);
  SDB_CHECK(role_.load(std::memory_order_relaxed) == RegistryRole::kPrimary,
            "direct insert on a follower (writes go through replication)");
  // Write-ahead: the record is durable before the state mutates. A crash
  // between the two leaves an unapplied record, which recovery discards
  // unless a later publish committed it.
  if (wal_ != nullptr) wal_->append_insert(coords);
  const PointId id = incremental_.insert(coords);
  ++mutations_;
  ++since_publish_;
  maybe_publish_locked();
  return id;
}

bool ModelRegistry::try_remove(PointId id) {
  const std::scoped_lock lock(writer_mu_);
  SDB_CHECK(role_.load(std::memory_order_relaxed) == RegistryRole::kPrimary,
            "direct remove on a follower (writes go through replication)");
  if (id < 0 || static_cast<size_t>(id) >= incremental_.size() ||
      incremental_.is_removed(id)) {
    return false;
  }
  // Logged after validation: replay only ever sees applicable removes.
  if (wal_ != nullptr) wal_->append_remove(id);
  SDB_CHECK(incremental_.try_remove(id), "validated remove failed to apply");
  ++mutations_;
  ++since_publish_;
  maybe_publish_locked();
  return true;
}

std::vector<dbscan::IncrementalDbscan::BatchResult> ModelRegistry::apply_batch(
    std::span<const dbscan::IncrementalDbscan::BatchOp> ops) {
  using BatchOp = dbscan::IncrementalDbscan::BatchOp;
  using BatchResult = dbscan::IncrementalDbscan::BatchResult;
  const std::scoped_lock lock(writer_mu_);
  SDB_CHECK(role_.load(std::memory_order_relaxed) == RegistryRole::kPrimary,
            "apply_batch on a follower (writes go through replication)");
  std::vector<BatchResult> results;
  u64 applied = 0;
  if (wal_ == nullptr) {
    // In-memory standalone registry (the streaming pipeline's default):
    // removals share one affected-region re-clustering.
    results = incremental_.apply_batch(ops);
    for (const BatchResult& r : results) applied += r.applied ? 1 : 0;
  } else {
    // With a WAL the record stream must EQUAL the state evolution op for op
    // — replay and replication re-apply records one at a time, and a
    // batched region re-clustering may land ambiguous borders differently.
    // Same canonical order (inserts, then removes), no shared region.
    results.resize(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind != BatchOp::Kind::kInsert) continue;
      wal_->append_insert(ops[i].coords);
      results[i] = {true, incremental_.insert(ops[i].coords)};
      ++applied;
    }
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind != BatchOp::Kind::kRemove) continue;
      const PointId id = ops[i].id;
      results[i].id = id;
      if (id < 0 || static_cast<size_t>(id) >= incremental_.size() ||
          incremental_.is_removed(id)) {
        continue;
      }
      wal_->append_remove(id);
      SDB_CHECK(incremental_.try_remove(id),
                "validated remove failed to apply");
      results[i].applied = true;
      ++applied;
    }
  }
  mutations_ += applied;
  since_publish_ += applied;
  maybe_publish_locked();
  return results;
}

void ModelRegistry::set_rebuild_threshold(size_t threshold) {
  const std::scoped_lock lock(writer_mu_);
  incremental_.set_rebuild_threshold(threshold);
}

size_t ModelRegistry::rebuild_threshold() const {
  const std::scoped_lock lock(writer_mu_);
  return incremental_.rebuild_threshold();
}

void ModelRegistry::set_core_sample_fraction(double fraction) {
  SDB_CHECK(fraction > 0.0 && fraction <= 1.0,
            "core_sample_fraction must be in (0, 1]");
  const std::scoped_lock lock(writer_mu_);
  config_.model_options.core_sample_fraction = fraction;
}

double ModelRegistry::core_sample_fraction() const {
  const std::scoped_lock lock(writer_mu_);
  return config_.model_options.core_sample_fraction;
}

u64 ModelRegistry::state_digest() const {
  const std::scoped_lock lock(writer_mu_);
  return incremental_.digest();
}

void ModelRegistry::bootstrap(const PointSet& points) {
  SDB_CHECK(points.dim() == dim_, "bootstrap: dimension mismatch");
  const std::scoped_lock lock(writer_mu_);
  SDB_CHECK(role_.load(std::memory_order_relaxed) == RegistryRole::kPrimary,
            "bootstrap on a follower (writes go through replication)");
  for (PointId i = 0; i < static_cast<PointId>(points.size()); ++i) {
    if (wal_ != nullptr) wal_->append_insert(points[i]);
    incremental_.insert(points[i]);
    ++mutations_;
  }
  publish_locked();
}

u64 ModelRegistry::publish() {
  const std::scoped_lock lock(writer_mu_);
  SDB_CHECK(role_.load(std::memory_order_relaxed) == RegistryRole::kPrimary,
            "publish on a follower (epochs come from the primary's stream)");
  return publish_locked();
}

void ModelRegistry::maybe_publish_locked() {
  if (config_.publish_every > 0 && since_publish_ >= config_.publish_every) {
    publish_locked();
  }
}

u64 ModelRegistry::publish_locked() {
  return publish_as_locked(epoch_.load(std::memory_order_relaxed) + 1,
                           /*log_marker=*/true);
}

u64 ModelRegistry::publish_as_locked(u64 epoch, bool log_marker) {
  // Row-compacted build: no dense copy of the id space, only the stored
  // rows plus an O(id_space) label scatter (the stable-id lookup contract).
  const auto view = incremental_.storage_view();
  std::vector<char> core_mask(view.id_space, 0);
  for (size_t row = 0; row < view.rows->size(); ++row) {
    if (view.removed[row] == 0 && view.core[row] != 0) {
      core_mask[static_cast<size_t>(view.external_ids[row])] = 1;
    }
  }
  std::shared_ptr<ClusterModel> model = ClusterModel::build_view(
      *view.rows, view.external_ids, view.removed, view.id_space,
      incremental_.clustering(), core_mask, config_.params,
      config_.model_options);
  model->set_epoch(epoch);
  // The commit marker hits the log before the in-memory swap: once any
  // reader can observe this epoch, a restart will recover it.
  if (log_marker && wal_ != nullptr) wal_->append_publish(epoch);
  ++publishes_;
  since_publish_ = 0;
  current_.store(std::move(model), std::memory_order_release);
  epoch_.store(epoch, std::memory_order_release);
  return epoch;
}

u64 ModelRegistry::publishes() const {
  const std::scoped_lock lock(writer_mu_);
  return publishes_;
}

u64 ModelRegistry::mutations() const {
  const std::scoped_lock lock(writer_mu_);
  return mutations_;
}

size_t ModelRegistry::active_points() const {
  const std::scoped_lock lock(writer_mu_);
  return incremental_.active_size();
}

}  // namespace sdb::serve
