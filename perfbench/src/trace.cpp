#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

SpanId Tracer::begin(std::string name, SpanId parent, std::uint64_t run) {
  const std::size_t self = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const double start = now_us();
  const std::scoped_lock lock(mu_);
  auto it = std::find(threads_.begin(), threads_.end(), self);
  if (it == threads_.end()) it = threads_.insert(threads_.end(), self);
  Span span;
  span.name = std::move(name);
  span.start_us = start;
  span.parent = parent;
  span.run = run;
  span.thread = static_cast<std::uint32_t>(it - threads_.begin());
  spans_.push_back(std::move(span));
  return static_cast<SpanId>(spans_.size() - 1);
}

double Tracer::end(SpanId id) {
  const double stop = now_us();
  const std::scoped_lock lock(mu_);
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end_us = stop;
  return (stop - span.start_us) * 1e-6;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  const std::scoped_lock lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kNoParent && s.end_us >= 0.0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                                s.end_us);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < 0.0) continue;
    // Children may overlap (tasks on several pool threads), so the covered
    // time is the length of the union of their intervals, clipped to the
    // parent's own interval.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start_us;
    for (const auto& [lo, hi] : kids) {
      const double a = std::max(lo, reach);
      const double b = std::min(hi, s.end_us);
      if (b > a) covered += b - a;
      reach = std::max(reach, std::min(hi, s.end_us));
    }
    Totals& t = out[s.name];
    const double dur = s.end_us - s.start_us;
    t.total_s += dur * 1e-6;
    t.self_s += (dur - covered) * 1e-6;
    ++t.count;
  }
  return out;
}

std::string span_line(const std::string& name, const Tracer::Totals& totals) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "span %-26s count %7llu  total %10.6f s  self %10.6f s",
                name.c_str(), static_cast<unsigned long long>(totals.count),
                totals.total_s, totals.self_s);
  return line;
}

void Tracer::write(const std::string& path) const {
  const std::scoped_lock lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < 0.0) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                 "\"id\":%zu,\"parent\":%lld,\"run\":%llu}}",
                 first ? "" : ",\n", s.name.c_str(), s.thread, s.start_us,
                 s.end_us - s.start_us, i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.run));
    first = false;
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench
