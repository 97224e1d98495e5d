#include "synth/io.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "synth/generators.hpp"
#include "util/rng.hpp"

namespace sdb::synth {
namespace {

/// Size of the texts the thread-count properties parse: large enough that
/// from_text at 2 to 16 threads splits them into several byte ranges.
constexpr size_t kManyRangeBytes = 200u << 10;

/// One blank: a space or a tab.
char random_blank(Rng& rng) { return rng.chance(0.5) ? ' ' : '\t'; }

/// A random point text of at least `bytes` bytes: records of `dim`
/// coordinates written as %.17g doubles, integers or short exponents,
/// separated by runs of spaces and tabs, with leading and trailing blanks,
/// blank and whitespace-only lines, and LF or CRLF endings. Without
/// `trailing_newline` the last record ends the text.
std::string random_point_text(Rng& rng, size_t bytes, int dim,
                              bool trailing_newline) {
  std::string text;
  char buf[64];
  const auto blanks = [&](u64 max) {
    for (u64 n = rng.uniform_index(max + 1); n > 0; --n) {
      text.push_back(random_blank(rng));
    }
  };
  const auto newline = [&] { text += rng.chance(0.3) ? "\r\n" : "\n"; };
  for (;;) {
    if (rng.chance(0.05)) {  // a blank or whitespace-only line
      blanks(3);
      newline();
      continue;
    }
    blanks(2);
    for (int d = 0; d < dim; ++d) {
      if (d > 0) {
        text.push_back(random_blank(rng));
        blanks(2);
      }
      const double v = rng.normal(0.0, 1e3);
      switch (rng.uniform_index(3)) {
        case 0: std::snprintf(buf, sizeof(buf), "%.17g", v); break;
        case 1:
          std::snprintf(buf, sizeof(buf), "%d", static_cast<int>(v));
          break;
        default: std::snprintf(buf, sizeof(buf), "%.3e", v); break;
      }
      text += buf;
    }
    blanks(2);
    if (text.size() >= bytes && !trailing_newline) return text;
    newline();
    if (text.size() >= bytes) return text;
  }
}

/// A line-at-a-time reference parse: tokens split on spaces, tabs and CRs,
/// each read with std::from_chars, blank lines skipped. The oracle for
/// "bit-identical to the serial parse".
std::vector<double> line_by_line(const std::string& text) {
  std::vector<double> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    size_t p = pos;
    while (p < eol) {
      while (p < eol && std::strchr(" \t\r", text[p]) != nullptr) ++p;
      size_t q = p;
      while (q < eol && std::strchr(" \t\r", text[q]) == nullptr) ++q;
      if (q > p) {
        double v = 0.0;
        std::from_chars(text.data() + p, text.data() + q, v);
        out.push_back(v);
      }
      p = q;
    }
    pos = eol + 1;
  }
  return out;
}

/// True when the two sets hold the same doubles bit for bit.
bool bit_identical(const PointSet& a, const PointSet& b) {
  return a.dim() == b.dim() && a.raw().size() == b.raw().size() &&
         std::memcmp(a.raw().data(), b.raw().data(),
                     a.raw().size() * sizeof(double)) == 0;
}

/// Valid 2-d records filling at least `bytes` bytes: the death tests append
/// one bad record, which then lies in the last byte range.
std::string valid_2d_records(size_t bytes) {
  std::string text;
  for (int i = 0; text.size() < bytes; ++i) {
    text += std::to_string(i) + " " + std::to_string(-i) + "\n";
  }
  return text;
}

TEST(PointIo, TextRoundTrip) {
  PointSet ps(3);
  const double a[3] = {1.5, -2.25, 3.0};
  const double b[3] = {0.1, 0.2, 0.3};
  ps.add(a);
  ps.add(b);
  const std::string text = to_text(ps);
  const PointSet back = from_text(text);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.dim(), 3);
  EXPECT_EQ(ps.raw(), back.raw());  // %.17g is lossless for doubles
}

TEST(PointIo, TextRoundTripRandom) {
  Rng rng(4);
  UniformConfig cfg;
  cfg.n = 200;
  cfg.dim = 10;
  cfg.box_side = 123.456;
  const PointSet ps = uniform_points(cfg, rng);
  const PointSet back = from_text(to_text(ps));
  EXPECT_EQ(ps.raw(), back.raw());
}

TEST(PointIo, ParsesBlankLinesAndWhitespace) {
  const PointSet ps = from_text("1 2\n\n  3\t4  \r\n5 6\n");
  ASSERT_EQ(ps.size(), 3u);
  EXPECT_DOUBLE_EQ(ps[1][0], 3.0);
  EXPECT_DOUBLE_EQ(ps[2][1], 6.0);
}

TEST(PointIo, LastLineWithoutNewline) {
  const PointSet ps = from_text("1 2\n3 4");
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_DOUBLE_EQ(ps[1][1], 4.0);
}

TEST(PointIo, EmptyTextYieldsEmptySet) {
  EXPECT_EQ(from_text("").size(), 0u);
  EXPECT_EQ(from_text("\n\n").size(), 0u);
}

TEST(PointIo, ThreadCountDoesNotChangeTheParse) {
  // Random texts with every kind of blank, CRLF endings, and with or
  // without a final newline: the parse at 2, 4 and 16 threads equals the
  // one-thread parse bit for bit, and both equal the line-by-line oracle.
  Rng rng(20);
  for (int trial = 0; trial < 6; ++trial) {
    const int dim = 1 + static_cast<int>(rng.uniform_index(12));
    const std::string text =
        random_point_text(rng, kManyRangeBytes, dim, trial % 2 == 0);
    const PointSet one = from_text(text, 1);
    ASSERT_EQ(one.dim(), dim);
    const std::vector<double> oracle = line_by_line(text);
    ASSERT_EQ(one.raw().size(), oracle.size());
    EXPECT_EQ(std::memcmp(one.raw().data(), oracle.data(),
                          oracle.size() * sizeof(double)),
              0);
    for (const unsigned threads : {2u, 4u, 16u}) {
      EXPECT_TRUE(bit_identical(from_text(text, threads), one))
          << "trial " << trial << ", " << threads << " threads";
    }
  }
}

TEST(PointIo, RecordStraddlingEveryRangeBoundary) {
  // The middle record is padded past every range boundary, so every range
  // after the first opens inside it; the last one owns the final record,
  // which has no newline.
  const std::string text =
      "1 2\n3" + std::string(kManyRangeBytes, ' ') + "4\r\n5 6";
  for (const unsigned threads : {1u, 2u, 4u, 16u}) {
    const PointSet ps = from_text(text, threads);
    EXPECT_EQ(ps.raw(), (std::vector<double>{1, 2, 3, 4, 5, 6}))
        << threads << " threads";
  }
}

TEST(PointIo, RangeBoundariesOnRecordStarts) {
  // 2^14 records of 16 bytes: splitting 256 KiB evenly into a power of two
  // of ranges puts every boundary on a record start.
  std::string text;
  char buf[32];
  for (int i = 0; i < (1 << 14); ++i) {
    std::snprintf(buf, sizeof(buf), "%07d %07d\n", i, 9999999 - i);
    text += buf;
  }
  ASSERT_EQ(text.size(), 16u << 14);
  const PointSet one = from_text(text, 1);
  ASSERT_EQ(one.size(), 1u << 14);
  EXPECT_DOUBLE_EQ(one[100][1], 9999899.0);
  for (const unsigned threads : {2u, 4u, 16u}) {
    EXPECT_TRUE(bit_identical(from_text(text, threads), one))
        << threads << " threads";
  }
}

TEST(PointIoDeath, InconsistentDimensionAborts) {
  EXPECT_DEATH(from_text("1 2\n3 4 5\n"), "inconsistent");
  EXPECT_DEATH(from_text(valid_2d_records(kManyRangeBytes) + "3 4 5\n", 4),
               "inconsistent");
  // Records too short for the first one's dimension: rejected before the
  // row buffer is sized from rows x dimension.
  EXPECT_DEATH(from_text("1 2 3 4 5 6 7 8\n1\n1\n1\n1\n1\n"), "inconsistent");
}

TEST(PointIoDeath, MalformedCoordinateAborts) {
  EXPECT_DEATH(from_text("1 abc\n"), "malformed");
  EXPECT_DEATH(from_text("1 2x\n"), "malformed");  // a number, then junk
  EXPECT_DEATH(from_text(valid_2d_records(kManyRangeBytes) + "1 abc\n", 4),
               "malformed");
}

TEST(PointIo, BinaryRoundTrip) {
  Rng rng(5);
  UniformConfig cfg;
  cfg.n = 100;
  cfg.dim = 7;
  cfg.box_side = 10;
  const PointSet ps = uniform_points(cfg, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "sdb_points.bin").string();
  save_binary(ps, path);
  const PointSet back = load_binary(path);
  EXPECT_EQ(ps.raw(), back.raw());
  EXPECT_EQ(back.dim(), 7);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace sdb::synth
