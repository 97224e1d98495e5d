// Deterministic job fingerprints for checkpoint/resume.
//
// A checkpoint is only safe to resume if the restarted job is *the same
// job*: same input bytes, same eps/minpts, same partitioning, same merge
// semantics, same wire codec and wire layout. The fingerprint folds every
// parameter that can change a partition's LocalClusterResult (or its
// serialized bytes) into one FNV-1a digest; JobCheckpoint embeds it in
// every record and discards records whose fingerprint differs, so a stale
// checkpoint directory can never contaminate a different run, and the
// decoders only ever see records in the layout they read.
#pragma once

#include "core/codec.hpp"
#include "core/dbscan.hpp"
#include "core/local_dbscan.hpp"
#include "core/merge.hpp"
#include "core/partitioners.hpp"
#include "geom/point_set.hpp"
#include "util/fnv.hpp"

namespace sdb::dbscan {

/// FNV-1a over the dataset's raw coordinate bytes + dimensionality. The
/// expensive term of the fingerprint (one pass over n*d doubles).
inline u64 dataset_digest(const PointSet& points) {
  const u64 h = fnv1a_value(kFnvSeed, points.dim());
  return fnv1a(points.raw().data(), points.raw().size() * sizeof(double), h);
}

/// The deterministic identity of one distributed-DBSCAN job. `engine`
/// separates spark from mr checkpoints sharing a directory; `seed` is the
/// partitioner seed (the only stochastic input to a partition's result).
inline u64 job_fingerprint(std::string_view engine, u64 dataset,
                           const DbscanParams& params,
                           PartitionerKind partitioner, u32 partitions,
                           u64 seed, SeedStrategy seed_strategy,
                           MergeStrategy merge_strategy, Codec codec,
                           u64 backend_salt = 0) {
  u64 h = dataset;
  h = fnv1a(engine.data(), engine.size(), h);
  h = fnv1a_value(h, params.eps);
  h = fnv1a_value(h, params.minpts);
  h = fnv1a_value(h, partitioner);
  h = fnv1a_value(h, partitions);
  h = fnv1a_value(h, seed);
  h = fnv1a_value(h, seed_strategy);
  h = fnv1a_value(h, merge_strategy);
  h = fnv1a_value(h, codec);
  h = fnv1a_value(h, kLocalResultWireV2);
  // Non-exact neighborhoods (the KNN-DBSCAN backend, or a query budget on
  // the exact one) fold their parameters in as a salt: a knn or budgeted
  // checkpoint must never resume into an exact job or into a job with other
  // graph or budget parameters, a descent-built one never into a job whose
  // descent starts from other rows (knn::kDescentStartVersion), and a
  // node-capped one never into a job whose kd-tree nodes have another
  // fan-out. Zero (exact queries) folds nothing.
  if (backend_salt != 0) h = fnv1a_value(h, backend_salt);
  return h;
}

}  // namespace sdb::dbscan
