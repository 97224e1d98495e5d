// Shared plumbing of the end-to-end benchmark: run options, the result
// record printed as the last line of stdout, order statistics, and process
// memory.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured region; a run starts new jobs until it is over.
  double seconds = 10.0;
  /// false: untraced end-to-end run. true: separate traced per-layer run.
  bool trace = false;
  /// Scratch directory for the run's DFS blocks (created and removed here).
  std::string work_dir;
  /// Chrome trace-event JSON written when a traced run exits.
  std::string trace_out;
};

/// One run's outcome: operations attempted and failed (a failed output
/// check counts as a failed operation) plus named metrics.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Free-form context lines (host, sample counts) printed before the
  /// metrics.
  std::vector<std::string> notes;
  std::map<std::string, double> metrics;

  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Median (mean of the middle pair for even sizes). 0 for an empty input.
double median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `sorted` must be ascending. 0 when empty.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// Start a fresh peak-resident-memory window (Linux: resets VmHWM through
/// /proc/self/clear_refs). Returns false when the kernel refuses.
bool reset_peak_rss();

/// Peak resident memory since the last reset_peak_rss(), in MiB.
double peak_rss_mb();

/// Workload entry points. Each fills `result` with every metric of its mode
/// (end-to-end or per-layer) that applies to it; main() zero-fills the rest.
void run_pipeline(const Options& options, Result& result);
void run_serve(const Options& options, Result& result);

}  // namespace perfbench
