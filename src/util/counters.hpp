// Instrumented work counters.
//
// The paper evaluates on a 512-core Cray; this reproduction runs on a
// commodity host, so scaling figures are produced on a *simulated cluster
// clock*. The primitive inputs to that clock are exact counts of the
// algorithm's unit operations, collected here: distance evaluations, kd-tree
// node visits, hash-table operations (the paper's Hashtable discussion,
// Section III.B), queue operations (the LinkedList discussion), bytes moved,
// and merge steps. The minispark cost model converts counts to simulated
// seconds (see minispark/cost_model.hpp).
//
// Collection is thread-local and scope-based:
//   WorkCounters wc;
//   { ScopedCounters scope(&wc);  ...hot code...; }
//   // wc now holds every operation performed in the scope on this thread.
//
// There are no process-global counter atomics anywhere on the hot path:
// every increment lands in the calling thread's active sink, and cross-
// thread totals exist only on demand — whoever owns the sinks aggregates
// them with operator+= after the threads join. Concurrent query threads
// therefore never share a counter cache line.
//
// Batching: the per-increment helpers below each cost one thread-local
// lookup. Hot loops (index queries, local_dbscan's expansion sweep) instead
// tally into a plain local WorkCounters (or plain u64 locals) and flush once
// per call through counters::add — the totals any enclosing scope observes
// are exactly the same, there is just one TLS access per query instead of
// one per operation.
#pragma once

#include "util/common.hpp"

namespace sdb {

struct WorkCounters {
  u64 distance_evals = 0;    ///< full d-dimensional distance computations
  u64 tree_nodes = 0;        ///< kd-tree wide nodes visited
  u64 hash_ops = 0;          ///< visited-set / membership table operations
  u64 queue_ops = 0;         ///< frontier push/pop operations
  u64 points_processed = 0;  ///< points whose neighborhood was expanded
  u64 seed_ops = 0;          ///< SEED bookkeeping steps (Algorithm 3)
  u64 merge_ops = 0;         ///< driver-side merge steps (Algorithm 4)
  u64 bytes_read = 0;        ///< bytes read from (mini-)DFS or spill files
  u64 bytes_written = 0;     ///< bytes written to (mini-)DFS or spill files
  u64 net_bytes = 0;         ///< bytes shipped executor<->driver (network)
  u64 codec_bytes = 0;       ///< bytes pushed through (de)serialization CPU
  u64 dfs_failovers = 0;     ///< reads that skipped a dead primary replica
  /// High-water mark of the BFS expansion frontier (a gauge, not a count:
  /// combined by max, excluded from total_ops). Guards against the
  /// duplicate-enqueue blow-up where a dense cluster queued each point
  /// O(minpts) times.
  u64 frontier_peak = 0;

  WorkCounters& operator+=(const WorkCounters& o) {
    distance_evals += o.distance_evals;
    tree_nodes += o.tree_nodes;
    hash_ops += o.hash_ops;
    queue_ops += o.queue_ops;
    points_processed += o.points_processed;
    seed_ops += o.seed_ops;
    merge_ops += o.merge_ops;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    net_bytes += o.net_bytes;
    codec_bytes += o.codec_bytes;
    dfs_failovers += o.dfs_failovers;
    if (o.frontier_peak > frontier_peak) frontier_peak = o.frontier_peak;
    return *this;
  }

  [[nodiscard]] u64 total_ops() const {
    return distance_evals + tree_nodes + hash_ops + queue_ops +
           points_processed + seed_ops + merge_ops;
  }
};

namespace counters {

/// The thread-local sink; null when no scope is active.
WorkCounters*& active();

inline void distance_evals(u64 n) {
  if (WorkCounters* c = active()) c->distance_evals += n;
}
inline void tree_nodes(u64 n) {
  if (WorkCounters* c = active()) c->tree_nodes += n;
}
inline void hash_ops(u64 n) {
  if (WorkCounters* c = active()) c->hash_ops += n;
}
inline void queue_ops(u64 n) {
  if (WorkCounters* c = active()) c->queue_ops += n;
}
inline void points_processed(u64 n) {
  if (WorkCounters* c = active()) c->points_processed += n;
}
inline void seed_ops(u64 n) {
  if (WorkCounters* c = active()) c->seed_ops += n;
}
inline void merge_ops(u64 n) {
  if (WorkCounters* c = active()) c->merge_ops += n;
}
inline void bytes_read(u64 n) {
  if (WorkCounters* c = active()) c->bytes_read += n;
}
inline void bytes_written(u64 n) {
  if (WorkCounters* c = active()) c->bytes_written += n;
}
inline void net_bytes(u64 n) {
  if (WorkCounters* c = active()) c->net_bytes += n;
}
inline void codec_bytes(u64 n) {
  if (WorkCounters* c = active()) c->codec_bytes += n;
}
inline void dfs_failovers(u64 n) {
  if (WorkCounters* c = active()) c->dfs_failovers += n;
}
/// Record the current frontier depth; the sink keeps the maximum.
inline void frontier_peak(u64 depth) {
  if (WorkCounters* c = active()) {
    if (depth > c->frontier_peak) c->frontier_peak = depth;
  }
}

/// Flush a locally-tallied batch into the active sink in one step (counts
/// add, frontier_peak combines by max — WorkCounters::operator+=). Exactness
/// contract: a call site that replaces N per-op increments with one add of
/// their tally produces byte-identical totals in every enclosing scope.
inline void add(const WorkCounters& batch) {
  if (WorkCounters* c = active()) *c += batch;
}

}  // namespace counters

/// RAII scope that directs this thread's counter increments into `sink`.
/// Scopes nest; the inner scope's counts are added to the outer sink when
/// the inner scope ends, so outer scopes observe totals.
class ScopedCounters {
 public:
  explicit ScopedCounters(WorkCounters* sink);
  ~ScopedCounters();

  ScopedCounters(const ScopedCounters&) = delete;
  ScopedCounters& operator=(const ScopedCounters&) = delete;

 private:
  WorkCounters* sink_;
  WorkCounters* previous_;
};

}  // namespace sdb
