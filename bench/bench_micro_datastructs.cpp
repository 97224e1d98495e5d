// Section III.B — the paper's data-structure argument, measured.
//
// The executor kernel needs (1) a visited/membership table with O(1)
// put/containsKey (the paper picks Java Hashtable) and (2) a frontier queue
// with O(1) add/remove (the paper picks LinkedList over ArrayList/Vector).
// These benches compare the C++ candidates on the kernel's exact access
// pattern: interleaved insert/lookup for the table; push-back/pop-front at
// BFS scale for the queue. The executor sweep (core/partition_bfs.hpp) runs
// the StateWord table and the VectorCursor queue; the others are the
// alternatives it was measured against.
#include <benchmark/benchmark.h>

#include <deque>
#include <list>
#include <queue>
#include <unordered_set>

#include "util/flat_hash.hpp"
#include "util/rng.hpp"

namespace sdb {
namespace {

constexpr int kKeyRange = 100000;

std::vector<i64> workload_keys(size_t n) {
  Rng rng(77);
  std::vector<i64> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<i64>(rng.uniform_index(kKeyRange)));
  }
  return keys;
}

// --- visited/membership table candidates ---

void BM_VisitedSet_FlatIdSet(benchmark::State& state) {
  const auto keys = workload_keys(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    FlatIdSet set(keys.size());
    u64 hits = 0;
    for (const i64 k : keys) {
      if (set.contains(k)) ++hits;
      else set.insert(k);
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VisitedSet_FlatIdSet)->Arg(10000)->Arg(100000);

void BM_VisitedSet_StdUnordered(benchmark::State& state) {
  const auto keys = workload_keys(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::unordered_set<i64> set;
    set.reserve(keys.size());
    u64 hits = 0;
    for (const i64 k : keys) {
      if (set.contains(k)) ++hits;
      else set.insert(k);
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VisitedSet_StdUnordered)->Arg(10000)->Arg(100000);

void BM_VisitedSet_BoolArray(benchmark::State& state) {
  // The dense alternative a C++ implementation can afford when ids are
  // dense 0..n-1 (the paper's Java Hashtable argument predates this).
  const auto keys = workload_keys(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<char> set(kKeyRange, 0);
    u64 hits = 0;
    for (const i64 k : keys) {
      if (set[static_cast<size_t>(k)]) ++hits;
      else set[static_cast<size_t>(k)] = 1;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VisitedSet_BoolArray)->Arg(10000)->Arg(100000);

void BM_VisitedSet_StateWord(benchmark::State& state) {
  // What the executor sweep runs: one u32 per id, filled when the task
  // starts; the top 2 bits hold the point's kind, the low 30 a cluster tag.
  constexpr u32 kKind = 3u << 30;
  constexpr u32 kVisited = 1u << 30;
  const auto keys = workload_keys(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<u32> words(kKeyRange, 0);
    u64 hits = 0;
    for (const i64 k : keys) {
      u32& w = words[static_cast<size_t>(k)];
      if ((w & kKind) != 0) ++hits;
      else w |= kVisited;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VisitedSet_StateWord)->Arg(10000)->Arg(100000);

// --- frontier queue candidates (paper: LinkedList wins in Java) ---

template <typename PushPop>
void frontier_bench(benchmark::State& state, PushPop run) {
  // BFS-like pattern: bursts of pushes (neighbor lists) interleaved with
  // single pops, equal totals.
  Rng rng(99);
  std::vector<u32> burst_sizes;
  u64 total = 0;
  while (total < static_cast<u64>(state.range(0))) {
    const u32 b = 1 + static_cast<u32>(rng.uniform_index(40));
    burst_sizes.push_back(b);
    total += b;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(run(burst_sizes));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(total));
}

void BM_Frontier_Deque(benchmark::State& state) {
  frontier_bench(state, [](const std::vector<u32>& bursts) {
    std::deque<i64> q;
    i64 sum = 0;
    for (const u32 b : bursts) {
      for (u32 i = 0; i < b; ++i) q.push_back(static_cast<i64>(i));
      while (!q.empty()) {
        sum += q.front();
        q.pop_front();
        if (q.size() < 8) break;  // keep a live frontier
      }
    }
    while (!q.empty()) {
      sum += q.front();
      q.pop_front();
    }
    return sum;
  });
}
BENCHMARK(BM_Frontier_Deque)->Arg(100000);

void BM_Frontier_List(benchmark::State& state) {
  // Java's LinkedList analog: node-per-element linked list.
  frontier_bench(state, [](const std::vector<u32>& bursts) {
    std::list<i64> q;
    i64 sum = 0;
    for (const u32 b : bursts) {
      for (u32 i = 0; i < b; ++i) q.push_back(static_cast<i64>(i));
      while (!q.empty()) {
        sum += q.front();
        q.pop_front();
        if (q.size() < 8) break;
      }
    }
    while (!q.empty()) {
      sum += q.front();
      q.pop_front();
    }
    return sum;
  });
}
BENCHMARK(BM_Frontier_List)->Arg(100000);

void BM_Frontier_VectorStack(benchmark::State& state) {
  // LIFO stack: changes traversal order (DFS), allowed for DBSCAN since
  // cluster membership is order-independent for core points.
  frontier_bench(state, [](const std::vector<u32>& bursts) {
    std::vector<i64> q;
    i64 sum = 0;
    for (const u32 b : bursts) {
      for (u32 i = 0; i < b; ++i) q.push_back(static_cast<i64>(i));
      while (!q.empty()) {
        sum += q.back();
        q.pop_back();
        if (q.size() < 8) break;
      }
    }
    while (!q.empty()) {
      sum += q.back();
      q.pop_back();
    }
    return sum;
  });
}
BENCHMARK(BM_Frontier_VectorStack)->Arg(100000);

void BM_Frontier_VectorCursor(benchmark::State& state) {
  // What the executor sweep runs: FIFO order from a vector and a read
  // cursor, cleared per cluster instead of popped.
  frontier_bench(state, [](const std::vector<u32>& bursts) {
    std::vector<i64> q;
    size_t head = 0;
    i64 sum = 0;
    for (const u32 b : bursts) {
      for (u32 i = 0; i < b; ++i) q.push_back(static_cast<i64>(i));
      while (head < q.size()) {
        sum += q[head++];
        if (q.size() - head < 8) break;
      }
    }
    while (head < q.size()) sum += q[head++];
    return sum;
  });
}
BENCHMARK(BM_Frontier_VectorCursor)->Arg(100000);

}  // namespace
}  // namespace sdb

BENCHMARK_MAIN();
