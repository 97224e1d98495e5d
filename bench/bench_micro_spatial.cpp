// Micro benchmarks for the spatial indexes (Section V.B's complexity claim):
// kd-tree vs the naive O(n) scan, build and eps-range query, at the paper's
// d=10 and at low dimension.
#include <benchmark/benchmark.h>

#include "spatial/brute_force.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/generators.hpp"
#include "util/rng.hpp"

namespace sdb {
namespace {

PointSet dataset(i64 n, int dim) {
  Rng rng(1234 + static_cast<u64>(dim));
  synth::UniformConfig cfg;
  cfg.n = n;
  cfg.dim = dim;
  cfg.eps = 25.0;
  cfg.target_neighbors = 15.0;
  return synth::uniform_points(cfg, rng);
}

void BM_KdTreeBuild(benchmark::State& state) {
  const PointSet ps = dataset(state.range(0), 10);
  for (auto _ : state) {
    KdTree tree(ps);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KdTreeBuild)->Arg(1000)->Arg(10000)->Arg(50000);

template <typename Index>
void range_query_loop(benchmark::State& state, const PointSet& ps,
                      const Index& index, double eps) {
  Rng rng(7);
  std::vector<PointId> out;
  for (auto _ : state) {
    out.clear();
    const auto q = static_cast<PointId>(rng.uniform_index(ps.size()));
    index.range_query(ps[q], eps, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_KdTreeQuery10d(benchmark::State& state) {
  const PointSet ps = dataset(state.range(0), 10);
  const KdTree tree(ps);
  range_query_loop(state, ps, tree, 25.0);
}
BENCHMARK(BM_KdTreeQuery10d)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_BruteForceQuery10d(benchmark::State& state) {
  const PointSet ps = dataset(state.range(0), 10);
  const BruteForceIndex brute(ps);
  range_query_loop(state, ps, brute, 25.0);
}
BENCHMARK(BM_BruteForceQuery10d)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_KdTreeQuery2d(benchmark::State& state) {
  const PointSet ps = dataset(state.range(0), 2);
  const KdTree tree(ps);
  range_query_loop(state, ps, tree, 25.0);
}
BENCHMARK(BM_KdTreeQuery2d)->Arg(10000);

void BM_KdTreePrunedQuery(benchmark::State& state) {
  // The paper's "pruning branches" mode for the 1m runs.
  const PointSet ps = dataset(50000, 10);
  const KdTree tree(ps);
  QueryBudget budget;
  budget.max_neighbors = static_cast<u64>(state.range(0));
  Rng rng(9);
  std::vector<PointId> out;
  for (auto _ : state) {
    out.clear();
    const auto q = static_cast<PointId>(rng.uniform_index(ps.size()));
    tree.range_query_budgeted(ps[q], 25.0, budget, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KdTreePrunedQuery)->Arg(0)->Arg(64)->Arg(16);

void BM_KdTreeKnn(benchmark::State& state) {
  const PointSet ps = dataset(20000, 10);
  const KdTree tree(ps);
  Rng rng(11);
  for (auto _ : state) {
    const auto q = static_cast<PointId>(rng.uniform_index(ps.size()));
    benchmark::DoNotOptimize(tree.knn(ps[q], static_cast<size_t>(state.range(0))));
  }
}
BENCHMARK(BM_KdTreeKnn)->Arg(4)->Arg(32);

}  // namespace
}  // namespace sdb

BENCHMARK_MAIN();
