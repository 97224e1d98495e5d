#include "serve/cluster_model.hpp"

#include "geom/distance.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace sdb::serve {

namespace {

constexpr u32 kMagic = 0x5342444d;  // "SDBM" little-endian-ish tag
// v2 adds core_sample_fraction (degraded-snapshot marker) after minpts.
constexpr u32 kVersion = 2;

/// Bounds-checked reads on top of BinaryReader: BinaryReader aborts the
/// process on truncated input (right for trusted spill files, wrong for a
/// serving snapshot loaded from disk), so every read is guarded by a
/// remaining() check and failure surfaces as `ok == false`.
struct SafeReader {
  BinaryReader reader;
  bool ok = true;

  explicit SafeReader(std::span<const char> buf)
      : reader(buf.data(), buf.size()) {}

  bool have(u64 n) {
    if (!ok || reader.remaining() < n) ok = false;
    return ok;
  }
  u32 read_u32() { return have(4) ? reader.read_u32() : 0; }
  u64 read_u64() { return have(8) ? reader.read_u64() : 0; }
  i64 read_i64() { return have(8) ? reader.read_i64() : 0; }
  double read_f64() { return have(8) ? reader.read_f64() : 0.0; }
  std::vector<i64> read_i64_vec() {
    if (!have(8)) return {};
    // Check the length prefix against the bytes left, so a corrupt huge
    // length fails cleanly instead of allocating petabytes.
    const u64 n = reader.read_u64();
    if (reader.remaining() / sizeof(i64) < n) {
      ok = false;
      return {};
    }
    std::vector<i64> v(n);
    for (u64 i = 0; i < n; ++i) v[i] = reader.read_i64();
    return v;
  }
  std::vector<double> read_f64_vec() {
    if (!have(8)) return {};
    const u64 n = reader.read_u64();
    if (reader.remaining() / sizeof(double) < n) {
      ok = false;
      return {};
    }
    std::vector<double> v(n);
    for (u64 i = 0; i < n; ++i) v[i] = reader.read_f64();
    return v;
  }
};

bool fail(std::string* error, const char* what) {
  if (error) *error = what;
  return false;
}

}  // namespace

std::shared_ptr<ClusterModel> ClusterModel::build(
    const PointSet& points, const dbscan::Clustering& clustering,
    const std::vector<char>& core_mask, const dbscan::DbscanParams& params) {
  return build(points, clustering, core_mask, params, Options{});
}

std::shared_ptr<ClusterModel> ClusterModel::build(
    const PointSet& points, const dbscan::Clustering& clustering,
    const std::vector<char>& core_mask, const dbscan::DbscanParams& params,
    const Options& options) {
  // Trivial view: rows ARE ids.
  return build_impl(points, {}, {}, points.size(), /*identity=*/true,
                    clustering, core_mask, params, options);
}

std::shared_ptr<ClusterModel> ClusterModel::build_view(
    const PointSet& rows, std::span<const PointId> external_ids,
    std::span<const char> skip_rows, u64 id_space,
    const dbscan::Clustering& clustering, const std::vector<char>& core_mask,
    const dbscan::DbscanParams& params, const Options& options) {
  return build_impl(rows, external_ids, skip_rows, id_space,
                    /*identity=*/false, clustering, core_mask, params,
                    options);
}

std::shared_ptr<ClusterModel> ClusterModel::build_impl(
    const PointSet& rows, std::span<const PointId> external_ids,
    std::span<const char> skip_rows, u64 id_space, bool identity,
    const dbscan::Clustering& clustering, const std::vector<char>& core_mask,
    const dbscan::DbscanParams& params, const Options& options) {
  SDB_CHECK(identity ? id_space == rows.size()
                     : external_ids.size() == rows.size(),
            "external ids do not cover the rows");
  SDB_CHECK(skip_rows.empty() || skip_rows.size() == rows.size(),
            "skip mask does not cover the rows");
  SDB_CHECK(clustering.labels.size() == id_space,
            "clustering does not cover the id space");
  SDB_CHECK(core_mask.size() == id_space,
            "core mask does not cover the id space");
  SDB_CHECK(options.core_sample_fraction > 0.0 &&
                options.core_sample_fraction <= 1.0,
            "core_sample_fraction must be in (0, 1]");
  SDB_CHECK(rows.dim() > 0, "model requires a dimensioned point set");

  auto model = std::shared_ptr<ClusterModel>(new ClusterModel());
  model->dim_ = rows.dim();
  model->params_ = params;
  model->num_clusters_ = clustering.num_clusters;
  model->labels_ = clustering.labels;
  model->core_sample_fraction_ = options.core_sample_fraction;
  model->core_points_ = PointSet(rows.dim());
  model->cluster_stats_.resize(clustering.num_clusters);
  model->centroids_.assign(
      clustering.num_clusters * static_cast<size_t>(rows.dim()), 0.0);

  Rng rng(options.sample_seed);
  const bool subsample = options.core_sample_fraction < 1.0;
  for (PointId row = 0; row < static_cast<PointId>(rows.size()); ++row) {
    if (!skip_rows.empty() && skip_rows[static_cast<size_t>(row)] != 0) {
      continue;
    }
    const PointId id = identity ? row : external_ids[static_cast<size_t>(row)];
    const ClusterId label = clustering.labels[static_cast<size_t>(id)];
    if (label < 0) continue;
    auto& stats = model->cluster_stats_[static_cast<size_t>(label)];
    ++stats.size;
    const std::span<const double> coords = rows[row];
    double* centroid =
        model->centroids_.data() + static_cast<size_t>(label) * rows.dim();
    for (int d = 0; d < rows.dim(); ++d) centroid[d] += coords[d];
    if (core_mask[static_cast<size_t>(id)] == 0) continue;
    ++stats.core_count;
    if (subsample && rng.uniform() >= options.core_sample_fraction) continue;
    model->core_points_.add(coords);
    model->core_ids_.push_back(id);
    model->core_labels_.push_back(label);
  }
  for (size_t c = 0; c < model->cluster_stats_.size(); ++c) {
    const u64 n = model->cluster_stats_[c].size;
    if (n == 0) continue;
    double* centroid = model->centroids_.data() + c * rows.dim();
    for (int d = 0; d < rows.dim(); ++d) {
      centroid[d] /= static_cast<double>(n);
    }
  }
  model->finalize();
  return model;
}

void ClusterModel::finalize() {
  tree_.reset();
  if (!core_points_.empty()) {
    tree_ = std::make_unique<KdTree>(core_points_);
  }
}

ClusterId ClusterModel::classify(std::span<const double> point) const {
  SDB_CHECK(static_cast<int>(point.size()) == dim(),
            "classify: dimension mismatch");
  if (tree_ == nullptr) return kNoise;
  const std::vector<PointId> nn = tree_->knn(point, 1);
  if (nn.empty()) return kNoise;
  if (!within_eps(point, core_points_[nn.front()], params_.eps)) return kNoise;
  return core_labels_[static_cast<size_t>(nn.front())];
}

ClusterId ClusterModel::label_of(PointId id) const {
  SDB_CHECK(has(id), "label_of: unknown point id");
  return labels_[static_cast<size_t>(id)];
}

ClusterModel::Summary ClusterModel::summary() const {
  Summary s;
  s.total_points = labels_.size();
  s.num_clusters = num_clusters_;
  s.core_points = core_points_.size();
  s.dim = dim();
  s.eps = params_.eps;
  s.minpts = params_.minpts;
  s.epoch = epoch_;
  for (const ClusterId l : labels_) s.noise_points += (l == kNoise) ? 1 : 0;
  return s;
}

const ClusterModel::ClusterStats& ClusterModel::stats_of(
    ClusterId cluster) const {
  SDB_CHECK(cluster >= 0 && static_cast<u64>(cluster) < num_clusters_,
            "stats_of: unknown cluster");
  return cluster_stats_[static_cast<size_t>(cluster)];
}

std::span<const double> ClusterModel::centroid_of(ClusterId cluster) const {
  SDB_CHECK(cluster >= 0 && static_cast<u64>(cluster) < num_clusters_,
            "centroid_of: unknown cluster");
  return {centroids_.data() + static_cast<size_t>(cluster) * dim(),
          static_cast<size_t>(dim())};
}

std::vector<char> ClusterModel::save() const {
  BinaryWriter w;
  w.write_u32(kMagic);
  w.write_u32(kVersion);
  w.write_u32(static_cast<u32>(dim()));
  w.write_f64(params_.eps);
  w.write_i64(params_.minpts);
  w.write_f64(core_sample_fraction_);
  w.write_u64(num_clusters_);
  w.write_i64_vec(labels_);
  w.write_i64_vec(core_ids_);
  w.write_i64_vec(core_labels_);
  w.write_f64_vec(core_points_.raw());
  {
    std::vector<i64> sizes;
    std::vector<i64> cores;
    sizes.reserve(cluster_stats_.size());
    cores.reserve(cluster_stats_.size());
    for (const ClusterStats& s : cluster_stats_) {
      sizes.push_back(static_cast<i64>(s.size));
      cores.push_back(static_cast<i64>(s.core_count));
    }
    w.write_i64_vec(sizes);
    w.write_i64_vec(cores);
  }
  w.write_f64_vec(centroids_);
  w.write_u64(fnv1a(w.buffer().data(), w.buffer().size()));
  return w.take();
}

void ClusterModel::save_file(const std::string& path) const {
  write_file(path, save());
}

std::shared_ptr<ClusterModel> ClusterModel::load(
    const std::vector<char>& buffer, std::string* error) {
  std::string err;
  const auto invalid = [&](const char* what) {
    fail(error, what);
    return std::shared_ptr<ClusterModel>();
  };

  // The checksum is the trailing u64 over everything before it.
  const auto payload = unseal(buffer);
  if (!payload) {
    return invalid(buffer.size() < sizeof(u64) ? "snapshot truncated"
                                               : "snapshot checksum mismatch");
  }

  SafeReader r(*payload);
  if (r.read_u32() != kMagic) return invalid("bad snapshot magic");
  if (r.read_u32() != kVersion) return invalid("unsupported snapshot version");
  const u32 dim = r.read_u32();
  const double eps = r.read_f64();
  const i64 minpts = r.read_i64();
  const double core_sample_fraction = r.read_f64();
  const u64 num_clusters = r.read_u64();
  std::vector<i64> labels = r.read_i64_vec();
  std::vector<i64> core_ids = r.read_i64_vec();
  std::vector<i64> core_labels = r.read_i64_vec();
  std::vector<double> core_coords = r.read_f64_vec();
  std::vector<i64> sizes = r.read_i64_vec();
  std::vector<i64> cores = r.read_i64_vec();
  std::vector<double> centroids = r.read_f64_vec();
  if (!r.ok) return invalid("snapshot truncated");
  if (!r.reader.at_end()) return invalid("snapshot has trailing bytes");

  // Structural validation: every index the query path would ever touch.
  if (dim == 0) return invalid("snapshot dimension is zero");
  if (core_ids.size() != core_labels.size() ||
      core_coords.size() != core_ids.size() * dim) {
    return invalid("inconsistent core arrays");
  }
  if (sizes.size() != num_clusters || cores.size() != num_clusters ||
      centroids.size() != num_clusters * dim) {
    return invalid("inconsistent cluster stats");
  }
  for (const i64 l : labels) {
    if (l != kNoise && (l < 0 || static_cast<u64>(l) >= num_clusters)) {
      return invalid("label out of range");
    }
  }
  for (const i64 l : core_labels) {
    if (l < 0 || static_cast<u64>(l) >= num_clusters) {
      return invalid("core label out of range");
    }
  }
  for (const i64 id : core_ids) {
    if (id < 0 || static_cast<u64>(id) >= labels.size()) {
      return invalid("core id out of range");
    }
  }
  for (const i64 s : sizes) {
    if (s < 0) return invalid("negative cluster size");
  }
  if (!(core_sample_fraction > 0.0 && core_sample_fraction <= 1.0)) {
    return invalid("core sample fraction out of range");
  }

  auto model = std::shared_ptr<ClusterModel>(new ClusterModel());
  model->dim_ = static_cast<int>(dim);
  model->params_ = dbscan::DbscanParams{eps, minpts};
  model->core_sample_fraction_ = core_sample_fraction;
  model->num_clusters_ = num_clusters;
  model->labels_ = std::move(labels);
  model->core_ids_ = std::move(core_ids);
  model->core_labels_ = std::move(core_labels);
  model->core_points_ = PointSet(static_cast<int>(dim), std::move(core_coords));
  model->cluster_stats_.resize(num_clusters);
  for (u64 c = 0; c < num_clusters; ++c) {
    model->cluster_stats_[c].size = static_cast<u64>(sizes[c]);
    model->cluster_stats_[c].core_count = static_cast<u64>(cores[c]);
  }
  model->centroids_ = std::move(centroids);
  model->finalize();
  return model;
}

std::shared_ptr<ClusterModel> ClusterModel::load_file(const std::string& path,
                                                      std::string* error) {
  return load(read_file(path), error);
}

}  // namespace sdb::serve
