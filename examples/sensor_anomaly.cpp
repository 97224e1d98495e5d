// Sensor anomaly detection: DBSCAN's noise points ARE the detector.
//
// A fleet of machines emits 10-dimensional feature vectors (the paper's
// dimensionality). Healthy machines cluster into a few operating modes;
// faulty readings land far from every mode. DBSCAN labels them noise — no
// training, no mode count needed. The example also shows the pipeline
// surviving injected executor faults (the paper's motivation for Spark over
// MPI): the run is repeated with a 50% task-failure rate and must produce
// the identical anomaly set by re-executing the failed tasks.
//
//   ./sensor_anomaly [--readings 4000] [--modes 5] [--anomalies 40]
#include <cstdio>

#include "core/quality.hpp"
#include "core/spark_dbscan.hpp"
#include "synth/generators.hpp"
#include "util/flags.hpp"

using namespace sdb;

int main(int argc, char** argv) {
  Flags flags;
  flags.add_i64("readings", 4000, "healthy sensor readings");
  flags.add_i64("modes", 5, "operating modes (true clusters)");
  flags.add_i64("anomalies", 40, "injected anomalous readings");
  flags.add_i64("partitions", 8, "executors / partitions");
  flags.add_i64("seed", 13, "data seed");
  flags.parse(argc, argv);

  // 1. Healthy readings: tight 10-d Gaussian modes. Anomalies: uniform
  //    points over the whole feature box, injected at known indices.
  Rng rng(static_cast<u64>(flags.i64_flag("seed")));
  synth::GaussianMixtureConfig healthy_cfg;
  healthy_cfg.n = flags.i64_flag("readings");
  healthy_cfg.dim = 10;
  healthy_cfg.clusters = static_cast<int>(flags.i64_flag("modes"));
  healthy_cfg.sigma = 2.0;
  healthy_cfg.noise_fraction = 0.0;
  healthy_cfg.center_separation_sigmas = 40.0;
  healthy_cfg.box_side = 600.0;
  const PointSet healthy = synth::gaussian_clusters(healthy_cfg, rng);

  PointSet readings(10);
  readings.reserve(healthy.size() +
                   static_cast<size_t>(flags.i64_flag("anomalies")));
  for (PointId i = 0; i < static_cast<PointId>(healthy.size()); ++i) {
    readings.add(healthy[i]);
  }
  std::vector<PointId> injected;
  std::vector<double> p(10);
  for (i64 a = 0; a < flags.i64_flag("anomalies"); ++a) {
    for (auto& x : p) x = rng.uniform(0.0, healthy_cfg.box_side);
    injected.push_back(readings.add(p));
  }

  // 2. Cluster. eps tuned to the mode width: readings within a mode sit
  //    ~sigma*sqrt(2d) ~ 9 apart; eps = 12 links modes internally only.
  dbscan::SparkDbscanConfig config;
  config.params = {12.0, 5};
  config.partitions = static_cast<u32>(flags.i64_flag("partitions"));

  auto run = [&](double fault_rate) {
    minispark::ClusterConfig cluster;
    cluster.executors = config.partitions;
    cluster.fault_injection_rate = fault_rate;
    cluster.max_task_attempts = 8;
    minispark::SparkContext ctx(cluster);
    dbscan::SparkDbscan dbscan(ctx, config);
    auto report = dbscan.run(readings);
    return std::make_pair(std::move(report),
                          ctx.last_job().failures_injected);
  };

  const auto [clean, clean_failures] = run(0.0);

  // 3. Score the detector.
  u64 caught = 0;
  for (const PointId a : injected) {
    caught += clean.clustering.labels[static_cast<size_t>(a)] == kNoise ? 1 : 0;
  }
  const u64 flagged = clean.clustering.noise_count();
  std::printf("readings: %zu (%lld injected anomalies)\n", readings.size(),
              static_cast<long long>(flags.i64_flag("anomalies")));
  std::printf("operating modes found: %llu (true: %lld)\n",
              static_cast<unsigned long long>(clean.clustering.num_clusters),
              static_cast<long long>(flags.i64_flag("modes")));
  std::printf("anomalies caught: %llu / %zu   false alarms: %llu\n",
              static_cast<unsigned long long>(caught), injected.size(),
              static_cast<unsigned long long>(flagged - caught));

  // 4. Same run under executor faults: re-executing the failed tasks must
  //    give the byte-identical labeling (the Spark-over-MPI argument,
  //    measured).
  const auto [faulty, injected_failures] = run(0.5);
  const bool identical = faulty.clustering.labels == clean.clustering.labels;
  std::printf("\nfault drill: %u task failures injected -> result %s\n",
              injected_failures, identical ? "IDENTICAL" : "DIVERGED (bug!)");
  return identical ? 0 : 1;
}
