#include "core/codec.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "core/dbscan_seq.hpp"
#include "core/local_dbscan.hpp"
#include "core/merge.hpp"
#include "core/mr_dbscan.hpp"
#include "core/spark_dbscan.hpp"
#include "minispark/job_checkpoint.hpp"
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

/// Cluster shapes at the edges of the wire format, one result each: SEEDs
/// at the boundaries of the id space, an empty cluster, and a uid with both
/// halves saturated.
std::vector<LocalClusterResult> edge_results() {
  LocalClusterResult boundary_seeds;
  boundary_seeds.partition = 2;
  PartialCluster a;
  a.partition = 2;
  a.uid = PartialCluster::make_uid(2, 7);
  a.members = {10, 11, 12};
  // SEEDs reference points OWNED BY OTHER PARTITIONS — including ids at the
  // boundary of the id space (first point, last point).
  a.seeds = {0, 9, 13, 999'999'999};
  boundary_seeds.clusters = {a};

  LocalClusterResult empty_cluster;
  empty_cluster.partition = 0;
  PartialCluster e;
  e.partition = 0;
  e.uid = PartialCluster::make_uid(0, 0);
  empty_cluster.clusters = {e};

  // make_uid packs (partition << 32) | local index; saturate both halves.
  LocalClusterResult max_uid;
  max_uid.partition = static_cast<PartitionId>(0x7fffffff);
  PartialCluster m;
  m.partition = max_uid.partition;
  m.uid = PartialCluster::make_uid(m.partition, 0xffffffffu);
  m.members = {1};
  max_uid.clusters = {m};
  return {boundary_seeds, empty_cluster, max_uid};
}

std::vector<i64> sorted(std::vector<i64> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// The v1 layouts, written by hand: no header, each cluster record carries
/// its own seed list.
std::string encode_v1(const LocalClusterResult& r, Codec codec) {
  if (codec == Codec::kRaw) {
    BinaryWriter w;
    w.write_i64(r.partition);
    w.write_u64(r.clusters.size());
    for (const auto& pc : r.clusters) {
      w.write_u64(pc.uid);
      w.write_i64(pc.partition);
      w.write_i64_vec(pc.members);
      w.write_i64_vec(pc.seeds);
    }
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
  std::vector<LocalClusterResult> inputs = edge_results();
  inputs.insert(inputs.begin(), sample_result());
  for (const LocalClusterResult& r : inputs) {
    const LocalClusterResult back = decode(encode(r, GetParam()), GetParam());
    EXPECT_EQ(back.partition, r.partition);
    ASSERT_EQ(back.clusters.size(), r.clusters.size());
    for (size_t i = 0; i < r.clusters.size(); ++i) {
      EXPECT_EQ(back.clusters[i].uid, r.clusters[i].uid);
      EXPECT_EQ(back.clusters[i].partition, r.clusters[i].partition);
      EXPECT_EQ(sorted(back.clusters[i].members),
                sorted(r.clusters[i].members));
      EXPECT_EQ(sorted(back.clusters[i].seeds), sorted(r.clusters[i].seeds));
    }
    EXPECT_EQ(sorted(back.core_points), sorted(r.core_points));
    EXPECT_EQ(sorted(back.noise), sorted(r.noise));
  }
  const LocalClusterResult max_uid =
      decode(encode(inputs.back(), GetParam()), GetParam());
  EXPECT_EQ(max_uid.clusters.at(0).uid >> 32, 0x7fffffffu);
  EXPECT_EQ(max_uid.clusters.at(0).uid & 0xffffffffu, 0xffffffffu);
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

// The decoders read one layout. A v1 blob starts with the partition id
// where the current layout has its magic value, so it is rejected there,
// never decoded (the job fingerprint keeps such checkpoint records from
// reaching a decoder at all; see LayoutResume below).
TEST_P(CodecRoundTrip, V1BlobAbortsWithBadWireMagic) {
  EXPECT_DEATH(decode(encode_v1(sample_result(), GetParam()), GetParam()),
               "bad wire magic");
}

// A cluster count larger than the bytes left could hold is truncated
// input, caught before it sizes the cluster array.
TEST_P(CodecRoundTrip, HugeClusterCountAbortsAsTruncated) {
  std::string bytes = encode(LocalClusterResult{}, GetParam());
  if (GetParam() == Codec::kRaw) {
    // Header (i64 magic, u32 version, i64 partition), then the u64 count.
    const u64 count = u64{1} << 62;
    std::memcpy(bytes.data() + 20, &count, sizeof(count));
  } else {
    // The empty result's count is its fourth varint, the single byte 0;
    // splice in 2^62 and keep the two empty id lists after it.
    std::vector<char> head(bytes.begin(), bytes.end() - 3);
    put_varint(head, u64{1} << 62);
    head.insert(head.end(), bytes.end() - 2, bytes.end());
    bytes.assign(head.begin(), head.end());
  }
  EXPECT_DEATH(decode(bytes, GetParam()), "truncated");
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

// ---------------------------------------------------------------------------
// Resume across wire layouts: the job fingerprint covers the layout, so
// checkpoint records written in another one are recomputed on resume,
// never decoded.
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

/// Three 8x8 grids of points 0.5 apart, 20 apart from each other. Every
/// coordinate is exact in binary, so the dataset digest, and with it the
/// job fingerprint, is the same on every host.
PointSet resume_points() {
  PointSet ps(2);
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 8; ++j) {
        ps.add(std::vector<double>{20.0 * c + 0.5 * i, 0.5 * j});
      }
    }
  }
  return ps;
}

struct LayoutResumeCase {
  const char* engine;  ///< "spark" or "mr"
  Codec codec;
  /// This job's fingerprint as computed while the fingerprint did not cover
  /// the wire layout: the key v1 checkpoint records were written under.
  u64 uncovered_fingerprint;
};

void PrintTo(const LayoutResumeCase& c, std::ostream* os) {
  *os << c.engine << "/" << codec_name(c.codec);
}

class LayoutResume : public ::testing::TestWithParam<LayoutResumeCase> {};

TEST_P(LayoutResume, V1RecordsAreRecomputedNotResumed) {
  const LayoutResumeCase c = GetParam();
  const PointSet ps = resume_points();
  const DbscanParams params{0.6, 4};
  constexpr u32 kParts = 4;
  const fs::path scratch =
      fs::temp_directory_path() /
      ("sdb_layout_resume_" + std::string(c.engine) + "_" +
       codec_name(c.codec) + "_" + std::to_string(::getpid()));
  fs::remove_all(scratch);
  const std::string ckpt_dir = (scratch / "ckpt").string();

  struct Run {
    Clustering clustering;
    u64 fingerprint = 0;
    u64 resumed = 0;
    u64 executed = 0;
  };
  auto run = [&](bool durable) {
    Run out;
    if (std::string(c.engine) == "spark") {
      minispark::ClusterConfig ccfg;
      ccfg.executors = 2;
      ccfg.straggler.fraction = 0.0;
      minispark::SparkContext ctx(ccfg);
      SparkDbscanConfig cfg;
      cfg.params = params;
      cfg.partitions = kParts;
      cfg.codec = c.codec;
      if (durable) cfg.checkpoint_dir = ckpt_dir;
      cfg.resume = true;
      SparkDbscan dbscan(ctx, cfg);
      SparkDbscanReport report = dbscan.run(ps);
      out = {std::move(report.clustering), report.job_fingerprint,
             report.resumed_partitions, report.executed_partitions};
    } else {
      MRDbscanConfig cfg;
      cfg.params = params;
      cfg.partitions = kParts;
      cfg.codec = c.codec;
      cfg.mr.work_dir = (scratch / "mr").string();
      cfg.mr.cores = 2;
      if (durable) cfg.checkpoint_dir = ckpt_dir;
      cfg.resume = true;
      MRDbscanReport report = mr_dbscan(ps, cfg);
      out = {std::move(report.clustering), report.job_fingerprint,
             report.resumed_partitions, report.executed_partitions};
    }
    return out;
  };
  const Run clean = run(/*durable=*/false);
  ASSERT_EQ(clean.clustering.num_clusters, 3);

  // Every partition's true result as a v1 record, under the fingerprint a
  // job that did not cover the layout gave these records.
  {
    const KdTree tree(ps);
    const Partitioning part =
        make_partitioning(PartitionerKind::kBlock, ps, kParts, 42);
    LocalDbscanConfig lcfg;
    lcfg.params = params;
    minispark::JobCheckpoint ckpt(ckpt_dir, c.uncovered_fingerprint,
                                  /*resume=*/false);
    for (u32 p = 0; p < kParts; ++p) {
      ckpt.save(p, encode_v1(local_dbscan(ps, tree, part,
                                          static_cast<PartitionId>(p), lcfg),
                             c.codec));
    }
  }

  const Run resumed = run(/*durable=*/true);
  EXPECT_NE(resumed.fingerprint, c.uncovered_fingerprint);
  EXPECT_EQ(resumed.resumed, 0u);
  EXPECT_EQ(resumed.executed, kParts);
  EXPECT_EQ(resumed.clustering.labels, clean.clustering.labels);
  fs::remove_all(scratch);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, LayoutResume,
    ::testing::Values(
        LayoutResumeCase{"spark", Codec::kRaw, 0x415055e79905c900ull},
        LayoutResumeCase{"spark", Codec::kCompact, 0xe14b01efef3b8591ull},
        LayoutResumeCase{"mr", Codec::kRaw, 0xa60d474ea5805a2cull},
        LayoutResumeCase{"mr", Codec::kCompact, 0x4607f356fbb616bdull}),
    [](const auto& info) {
      return std::string(info.param.engine) + "_" +
             codec_name(info.param.codec);
    });

}  // namespace
}  // namespace sdb::dbscan
