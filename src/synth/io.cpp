#include "synth/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace sdb::synth {

std::string to_text(const PointSet& points) {
  std::string out;
  // ~24 chars per coordinate is a safe reservation for %.17g doubles.
  out.reserve(points.size() * static_cast<size_t>(points.dim()) * 24);
  char buf[64];
  for (PointId i = 0; i < static_cast<PointId>(points.size()); ++i) {
    const auto p = points[i];
    for (size_t d = 0; d < p.size(); ++d) {
      const int len = std::snprintf(buf, sizeof(buf), "%.17g", p[d]);
      if (d > 0) out.push_back(' ');
      out.append(buf, static_cast<size_t>(len));
    }
    out.push_back('\n');
  }
  return out;
}

namespace {

/// Ranges per thread, so that a thread whose ranges parse fast takes more.
constexpr size_t kRangesPerThread = 4;
/// Smallest range worth a task: at the one-thread rate (~300 MB/s) 16 KiB
/// parses in ~50 µs, about what starting a pool thread costs.
constexpr size_t kMinRangeBytes = 16u << 10;

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// End of the record that starts at `p`: its '\n', or the end of the text.
size_t record_end(const std::string& text, size_t p) {
  const void* nl = std::memchr(text.data() + p, '\n', text.size() - p);
  return nl == nullptr ? text.size()
                       : static_cast<size_t>(static_cast<const char*>(nl) -
                                             text.data());
}

/// Parse the coordinates of the record text[p, eol) and return how many it
/// has; the first `dim` of them go to `row`. Aborts on a malformed one: a
/// coordinate is what std::from_chars reads, and a blank or the record's
/// end must follow it.
size_t parse_record(const std::string& text, size_t p, size_t eol,
                    double* row, size_t dim) {
  const char* const end = text.data() + eol;
  const char* c = text.data() + p;
  size_t coords = 0;
  for (;;) {
    while (c < end && is_space(*c)) ++c;
    if (c >= end) return coords;
    double value = 0.0;
    const auto [next, ec] = std::from_chars(c, end, value);
    SDB_CHECK(ec == std::errc{} && (next == end || is_space(*next)),
              "malformed coordinate in point text");
    if (coords < dim) row[coords] = value;
    ++coords;
    c = next;
  }
}

/// The records whose first byte lies in one byte range of the text.
struct TextRange {
  size_t begin = 0;      ///< first record start at or after the range start
  size_t end = 0;        ///< range end (a record may run past it)
  size_t records = 0;    ///< non-blank records owned
  size_t first_dim = 0;  ///< coordinates of the first of them
  size_t first_row = 0;  ///< its row in the parsed set
};

/// First pass over [start, end): find the first record the range owns and
/// count its non-blank records.
TextRange count_range(const std::string& text, size_t start, size_t end) {
  TextRange range;
  range.end = end;
  range.begin = start;
  if (start > 0 && text[start - 1] != '\n') {
    // The range opens inside a record an earlier range owns.
    const size_t eol = record_end(text, start);
    range.begin = eol == text.size() ? eol : eol + 1;
  }
  for (size_t p = range.begin; p < end;) {
    const size_t eol = record_end(text, p);
    size_t q = p;
    while (q < eol && is_space(text[q])) ++q;
    if (q < eol) {
      if (range.records == 0) {
        range.first_dim = parse_record(text, q, eol, nullptr, 0);
      }
      ++range.records;
    }
    p = eol + 1;
  }
  return range;
}

}  // namespace

PointSet from_text(const std::string& text, unsigned threads) {
  const size_t size = text.size();
  const size_t parts =
      threads <= 1 ? 1
                   : std::clamp<size_t>(size / kMinRangeBytes, 1,
                                        size_t{threads} * kRangesPerThread);
  std::vector<TextRange> ranges(parts);
  parallel_for(parts, threads, [&](size_t r) {
    ranges[r] = count_range(text, size * r / parts, size * (r + 1) / parts);
  });

  size_t rows = 0;
  size_t dim = 0;
  for (TextRange& range : ranges) {
    range.first_row = rows;
    rows += range.records;
    if (dim == 0) dim = range.first_dim;
  }
  if (rows == 0) return PointSet(1);  // empty input -> empty 1-d set
  // A coordinate takes at least two bytes (digit and separator), but the
  // last one of an unterminated text: more cells than that means some record
  // is short, and the buffer below must not be sized from it.
  SDB_CHECK(dim <= (size + 1) / 2 / rows,
            "inconsistent dimensionality in point text");

  std::vector<double> data(rows * dim);
  parallel_for(parts, threads, [&](size_t r) {
    const TextRange& range = ranges[r];
    double* row = data.data() + range.first_row * dim;
    for (size_t p = range.begin; p < range.end;) {
      const size_t eol = record_end(text, p);
      const size_t coords = parse_record(text, p, eol, row, dim);
      p = eol + 1;
      if (coords == 0) continue;  // skip blank lines
      SDB_CHECK(coords == dim, "inconsistent dimensionality in point text");
      row += dim;
    }
  });
  return PointSet(static_cast<int>(dim), std::move(data));
}

void save_binary(const PointSet& points, const std::string& path) {
  BinaryWriter w;
  w.write_u32(static_cast<u32>(points.dim()));
  w.write_u64(points.size());
  w.write_f64_vec(points.raw());
  write_file(path, w.buffer());
}

PointSet load_binary(const std::string& path) {
  const std::vector<char> data = read_file(path);
  BinaryReader r(data);
  const int dim = static_cast<int>(r.read_u32());
  const u64 n = r.read_u64();
  std::vector<double> raw = r.read_f64_vec();
  SDB_CHECK(raw.size() == n * static_cast<u64>(dim), "corrupt binary point file");
  return PointSet(dim, std::move(raw));
}

}  // namespace sdb::synth
