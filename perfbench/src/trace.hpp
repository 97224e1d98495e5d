// In-memory span recorder for the traced per-layer run.
//
// Spans are recorded by the benchmark around its calls into each layer
// (name, start, end, parent, run id, thread) and kept in memory; write()
// dumps them once, as Chrome trace-event JSON, when the run exits. Parents
// are explicit ids rather than a thread-local stack because executor tasks
// run on minispark's pool threads, not on the thread that opened the
// executor-phase span.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using SpanId = std::int64_t;
inline constexpr SpanId kNoParent = -1;

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;  ///< since the tracer was created
    double end_us = -1.0;   ///< < 0 while the span is open
    SpanId parent = kNoParent;
    std::uint64_t run = 0;
    std::uint32_t thread = 0;
  };

  /// Per-name totals: summed duration, summed self time (duration minus the
  /// part of the span its children cover) and span count.
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t count = 0;
  };

  Tracer();

  SpanId begin(std::string name, SpanId parent, std::uint64_t run);
  /// Close the span; returns its duration in seconds.
  double end(SpanId id);

  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write(const std::string& path) const;

 private:
  [[nodiscard]] double now_us() const;

  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;  // guards spans_ and threads_
  std::vector<Span> spans_;
  std::vector<std::size_t> threads_;  // std::thread::id hashes, index = tid
};

/// One human-readable line of per-name span totals.
std::string span_line(const std::string& name, const Tracer::Totals& totals);

/// RAII span: opened on construction, closed by end() or the destructor.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, SpanId parent,
             std::uint64_t run)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent, run)) {}
  ~ScopedSpan() {
    if (open_) tracer_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] SpanId id() const { return id_; }
  /// Close now; returns the duration in seconds.
  double end() {
    open_ = false;
    return tracer_.end(id_);
  }

 private:
  Tracer& tracer_;
  SpanId id_;
  bool open_ = true;
};

}  // namespace perfbench
