#include "core/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/dbscan_seq.hpp"
#include "core/local_dbscan.hpp"
#include "core/merge.hpp"
#include "core/spark_dbscan.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/generators.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/varint.hpp"

namespace sdb::dbscan {
namespace {

LocalClusterResult sample_result() {
  LocalClusterResult r;
  r.partition = 2;
  PartialCluster a;
  a.uid = PartialCluster::make_uid(2, 0);
  a.partition = 2;
  a.members = {200, 201, 205, 210, 260};
  a.seeds = {10, 900};
  PartialCluster b;
  b.uid = PartialCluster::make_uid(2, 1);
  b.partition = 2;
  b.members = {300};
  r.clusters = {a, b};
  r.core_points = {200, 201, 300};
  r.noise = {250, 251};
  return r;
}

std::vector<i64> sorted(std::vector<i64> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// The legacy v1 layouts, written by hand: no header, each cluster record
/// carries its own seed list.
std::string encode_v1(const LocalClusterResult& r, Codec codec) {
  if (codec == Codec::kRaw) {
    BinaryWriter w;
    w.write_i64(r.partition);
    w.write_u64(r.clusters.size());
    for (const auto& pc : r.clusters) serialize(pc, w);
    w.write_i64_vec(r.core_points);
    w.write_i64_vec(r.noise);
    return std::string(w.buffer().data(), w.buffer().size());
  }
  std::vector<char> out;
  put_varint(out, static_cast<u64>(r.partition));
  put_varint(out, r.clusters.size());
  for (const auto& pc : r.clusters) {
    put_varint(out, pc.uid);
    put_id_list(out, pc.members);
    put_id_list(out, pc.seeds);
  }
  put_id_list(out, r.core_points);
  put_id_list(out, r.noise);
  return std::string(out.data(), out.size());
}

class CodecRoundTrip : public ::testing::TestWithParam<Codec> {};

TEST_P(CodecRoundTrip, PreservesContentAsSets) {
  const auto r = sample_result();
  const LocalClusterResult back = decode(encode(r, GetParam()), GetParam());
  EXPECT_EQ(back.partition, r.partition);
  ASSERT_EQ(back.clusters.size(), r.clusters.size());
  for (size_t i = 0; i < r.clusters.size(); ++i) {
    EXPECT_EQ(back.clusters[i].uid, r.clusters[i].uid);
    EXPECT_EQ(sorted(back.clusters[i].members), sorted(r.clusters[i].members));
    EXPECT_EQ(sorted(back.clusters[i].seeds), sorted(r.clusters[i].seeds));
  }
  EXPECT_EQ(sorted(back.core_points), sorted(r.core_points));
  EXPECT_EQ(sorted(back.noise), sorted(r.noise));
}

TEST_P(CodecRoundTrip, EmptyResult) {
  LocalClusterResult r;
  r.partition = 0;
  const LocalClusterResult back = decode(encode(r, GetParam()), GetParam());
  EXPECT_TRUE(back.clusters.empty());
  EXPECT_TRUE(back.core_points.empty());
  EXPECT_TRUE(back.noise.empty());
}

TEST_P(CodecRoundTrip, TrailingGarbageAborts) {
  std::string bytes = encode(sample_result(), GetParam());
  bytes += '\0';
  EXPECT_DEATH(decode(bytes, GetParam()), "trailing");
}

// Checkpoint records written in the v1 layout reach the decoders on
// resume; they must decode to exactly what the current layout does.
TEST_P(CodecRoundTrip, LegacyV1BlobDecodesLikeCurrentLayout) {
  const auto r = sample_result();
  const LocalClusterResult v1 = decode(encode_v1(r, GetParam()), GetParam());
  const LocalClusterResult v2 = decode(encode(r, GetParam()), GetParam());
  EXPECT_EQ(v1.partition, v2.partition);
  ASSERT_EQ(v1.clusters.size(), v2.clusters.size());
  for (size_t i = 0; i < v1.clusters.size(); ++i) {
    EXPECT_EQ(v1.clusters[i].uid, v2.clusters[i].uid);
    EXPECT_EQ(v1.clusters[i].partition, v2.clusters[i].partition);
    EXPECT_EQ(v1.clusters[i].members, v2.clusters[i].members);
    EXPECT_EQ(v1.clusters[i].seeds, v2.clusters[i].seeds);
  }
  EXPECT_EQ(v1.core_points, v2.core_points);
  EXPECT_EQ(v1.noise, v2.noise);
}

INSTANTIATE_TEST_SUITE_P(Codecs, CodecRoundTrip,
                         ::testing::Values(Codec::kRaw, Codec::kCompact),
                         [](const auto& info) {
                           return std::string(codec_name(info.param));
                         });

TEST(Codec, CompactIsSubstantiallySmallerOnRealOutput) {
  // Encode an actual kernel output: block partitions make member ids dense,
  // which is the compact codec's design case.
  Rng rng(3);
  synth::UniformConfig cfg;
  cfg.n = 2000;
  cfg.dim = 2;
  cfg.box_side = 25.0;
  const PointSet ps = synth::uniform_points(cfg, rng);
  const KdTree tree(ps);
  const auto part = make_partitioning(PartitionerKind::kBlock, ps, 4);
  LocalDbscanConfig lcfg;
  lcfg.params = {1.0, 4};
  const auto local = local_dbscan(ps, tree, part, 1, lcfg);

  const size_t raw = encode(local, Codec::kRaw).size();
  const size_t compact = encode(local, Codec::kCompact).size();
  EXPECT_LT(compact * 3, raw) << "raw=" << raw << " compact=" << compact;
  // And it must still merge to the same clustering.
  const auto direct = merge_partial_clusters({local}, ps.size(), {});
  const auto via_codec = merge_partial_clusters(
      {decode(encode(local, Codec::kCompact), Codec::kCompact)}, ps.size(),
      {});
  EXPECT_EQ(direct.clustering.num_clusters, via_codec.clustering.num_clusters);
  EXPECT_EQ(direct.clustering.noise_count(), via_codec.clustering.noise_count());
}

TEST(Codec, ChargesCodecBytes) {
  WorkCounters wc;
  const auto r = sample_result();
  {
    ScopedCounters scope(&wc);
    const std::string bytes = encode(r, Codec::kCompact);
    decode(bytes, Codec::kCompact);
  }
  EXPECT_GT(wc.codec_bytes, 0u);
}

TEST(Codec, SparkPipelineEquivalentUnderBothCodecs) {
  Rng rng(5);
  synth::GaussianMixtureConfig gcfg;
  gcfg.n = 600;
  gcfg.dim = 2;
  gcfg.clusters = 3;
  gcfg.sigma = 0.5;
  gcfg.box_side = 50.0;
  const PointSet ps = synth::gaussian_clusters(gcfg, rng);

  auto run = [&](Codec codec) {
    minispark::ClusterConfig cluster;
    cluster.executors = 4;
    cluster.straggler.fraction = 0.0;
    minispark::SparkContext ctx(cluster);
    SparkDbscanConfig cfg;
    cfg.params = {1.0, 5};
    cfg.partitions = 4;
    cfg.codec = codec;
    SparkDbscan dbscan(ctx, cfg);
    return dbscan.run(ps);
  };
  const auto raw = run(Codec::kRaw);
  const auto compact = run(Codec::kCompact);
  EXPECT_EQ(raw.clustering.num_clusters, compact.clustering.num_clusters);
  EXPECT_EQ(raw.clustering.noise_count(), compact.clustering.noise_count());
  EXPECT_LT(compact.accumulator_bytes, raw.accumulator_bytes);
}

}  // namespace
}  // namespace sdb::dbscan
