// Cost model: converts measured WorkCounters into simulated seconds.
//
// The paper's evaluation ran on up to 512 Cray XC30 cores; this repo runs on
// whatever host it is built on, so scaling results are produced on a
// *simulated cluster clock*. Execution is always real (every task computes
// its exact result); only the *time* attributed to a task is synthesized:
//
//     sim_seconds(task) = task_launch_overhead
//                       + sum_i counter_i * ns_per_op_i
//                       + bytes moved / bandwidth
//
// The per-op constants below were calibrated once against wall-clock
// microbenchmarks of the respective hot loops on a 2.4 GHz x86 core (the
// paper's Ivy Bridge clock) and are deliberately kept fixed so results are
// machine-independent. calibrate() can re-derive them on the current host.
#pragma once

#include "util/common.hpp"
#include "util/counters.hpp"

namespace sdb::minispark {

struct CostModel {
  // --- compute (nanoseconds per counted unit operation) ---
  double ns_distance_eval = 14.0;   ///< one 10-d squared distance
  /// One tree node visit. The kd-tree charges one per wide node (one
  /// 8-box kernel call), not per binary box test, so its tree_nodes fell
  /// ~9x with that layout (c100k 6.49M -> 0.73M) while the price stayed:
  /// at 9 ns the binary visits were ~2% of c100k's simulated task compute.
  double ns_tree_node = 9.0;
  double ns_hash_op = 22.0;         ///< Hashtable put/containsKey (paper IIIB)
  double ns_queue_op = 7.0;         ///< LinkedList add/remove (paper IIIB)
  double ns_point_processed = 30.0; ///< per-point bookkeeping in the scan
  double ns_seed_op = 12.0;         ///< SEED placement step (Algorithm 3)
  double ns_merge_op = 18.0;        ///< driver merge step (Algorithm 4)
  double ns_codec_byte = 1.0;       ///< (de)serialization CPU per byte

  // --- storage / network ---
  double disk_read_bps = 400e6;     ///< local disk / DFS read bandwidth
  double disk_write_bps = 250e6;    ///< local disk / DFS write bandwidth
  double net_bps = 1.0e9;           ///< executor<->driver bandwidth (bytes/s)
  double net_latency_s = 0.5e-3;    ///< per-message latency

  // --- framework overheads ---
  double task_launch_s = 5e-3;      ///< Spark task dispatch cost (~5 ms)
  double job_setup_s = 80e-3;       ///< per-job driver scheduling cost

  /// Simulated compute seconds for a set of counted operations (bytes are
  /// charged at disk bandwidth; they come from DFS/spill IO).
  [[nodiscard]] double compute_seconds(const WorkCounters& c) const {
    const double ns = static_cast<double>(c.distance_evals) * ns_distance_eval +
                      static_cast<double>(c.tree_nodes) * ns_tree_node +
                      static_cast<double>(c.hash_ops) * ns_hash_op +
                      static_cast<double>(c.queue_ops) * ns_queue_op +
                      static_cast<double>(c.points_processed) * ns_point_processed +
                      static_cast<double>(c.seed_ops) * ns_seed_op +
                      static_cast<double>(c.merge_ops) * ns_merge_op +
                      static_cast<double>(c.codec_bytes) * ns_codec_byte;
    return ns * 1e-9 + static_cast<double>(c.bytes_read) / disk_read_bps +
           static_cast<double>(c.bytes_written) / disk_write_bps +
           static_cast<double>(c.net_bytes) / net_bps +
           (c.net_bytes > 0 ? net_latency_s : 0.0);
  }

  /// Seconds to broadcast `bytes` to `executors` executors. Spark uses a
  /// torrent-style broadcast whose cost grows logarithmically with the
  /// executor count rather than linearly.
  [[nodiscard]] double broadcast_seconds(u64 bytes, u32 executors) const {
    if (executors == 0) return 0.0;
    double log2e = 1.0;
    for (u32 e = executors; e > 1; e >>= 1) log2e += 1.0;
    return net_latency_s * log2e +
           static_cast<double>(bytes) / net_bps * log2e * 0.25 +
           static_cast<double>(bytes) / net_bps;
  }

  /// Seconds for one executor->driver transfer of `bytes` (accumulator
  /// results, collected partitions).
  [[nodiscard]] double transfer_seconds(u64 bytes) const {
    return net_latency_s + static_cast<double>(bytes) / net_bps;
  }
};

/// Straggler model (the paper's t_straggling term): each task independently
/// straggles with probability `fraction`, multiplying its duration by a
/// factor drawn uniformly from [1, 1 + max_extra].
struct StragglerModel {
  double fraction = 0.05;
  double max_extra = 0.5;
};

}  // namespace sdb::minispark
