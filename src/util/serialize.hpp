// Binary serialization used by the DFS blocks, MapReduce spill files, and
// minispark's broadcast/accumulator size accounting.
//
// Format: little-endian fixed-width scalars, u64 length prefixes for
// strings/vectors. The writers/readers are deliberately simple: the goal is
// measurable byte volumes, not schema evolution. The reader checks every
// length prefix against the bytes left before it allocates, so a corrupt or
// hostile prefix aborts as truncated input instead of allocating.
//
// Checksummed records take one of two shapes over util/fnv.hpp's FNV-1a: a
// sealed buffer, `payload | u64 fnv1a(payload)` (DFS manifest, job
// checkpoint record, WAL snapshot, serving snapshot: writers end with
// `w.write_u64(fnv1a(...))`, readers call unseal()), or a frame,
// `u32 len | payload | u64 fnv1a(payload)` (registry WAL records and
// replication batches: put_frame() and next_frame()). Each reader keeps
// its own magic, version, size and structural checks on the payload.
#pragma once

#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace sdb {

/// Appends to a byte container: std::vector<char> (BinaryWriter) or
/// std::string (StringWriter, for payloads that travel as strings, which
/// take() then hands over without a copy).
template <typename Bytes>
class BasicBinaryWriter {
 public:
  /// Reserve capacity for `n` bytes in total; a writer reserved at its
  /// final size allocates exactly once.
  void reserve(size_t n) { buf_.reserve(n); }

  void write_u8(u32 v) { buf_.push_back(static_cast<char>(v & 0xff)); }
  void write_u32(u32 v) { append(&v, sizeof(v)); }
  void write_u64(u64 v) { append(&v, sizeof(v)); }
  void write_i64(i64 v) { append(&v, sizeof(v)); }
  void write_f64(double v) { append(&v, sizeof(v)); }

  void write_string(const std::string& s) {
    write_u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Raw bytes, no length prefix (caller owns the framing).
  void write_bytes(const void* p, size_t n) { append(p, n); }

  void write_i64_vec(const std::vector<i64>& v) {
    write_u64(v.size());
    append(v.data(), v.size() * sizeof(i64));
  }

  void write_f64_vec(const std::vector<double>& v) {
    write_u64(v.size());
    append(v.data(), v.size() * sizeof(double));
  }

  [[nodiscard]] const Bytes& buffer() const { return buf_; }
  [[nodiscard]] u64 size() const { return buf_.size(); }
  Bytes take() { return std::move(buf_); }

 private:
  /// Out of line: inlined into callers, GCC 12 reports false
  /// -Wstringop-overflow/-Wrestrict positives inside vector::insert.
  void append(const void* p, size_t n);
  Bytes buf_;
};

extern template class BasicBinaryWriter<std::vector<char>>;
extern template class BasicBinaryWriter<std::string>;
using BinaryWriter = BasicBinaryWriter<std::vector<char>>;
using StringWriter = BasicBinaryWriter<std::string>;

class BinaryReader {
 public:
  explicit BinaryReader(const std::vector<char>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  BinaryReader(const char* data, size_t size) : data_(data), size_(size) {}

  u32 read_u8() { u32 v = static_cast<unsigned char>(peek(1)[0]); pos_ += 1; return v; }
  u32 read_u32() { return read_scalar<u32>(); }
  u64 read_u64() { return read_scalar<u64>(); }
  i64 read_i64() { return read_scalar<i64>(); }
  double read_f64() { return read_scalar<double>(); }

  std::string read_string() {
    const u64 n = read_u64();
    const char* p = peek(n);
    pos_ += n;
    return std::string(p, n);
  }

  std::vector<i64> read_i64_vec() { return read_vec<i64>(); }
  std::vector<double> read_f64_vec() { return read_vec<double>(); }

  [[nodiscard]] bool at_end() const { return pos_ == size_; }
  [[nodiscard]] size_t position() const { return pos_; }
  [[nodiscard]] size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  T read_scalar() {
    T v;
    std::memcpy(&v, peek(sizeof(T)), sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  std::vector<T> read_vec() {
    const u64 n = read_u64();
    SDB_CHECK(n <= remaining() / sizeof(T), "BinaryReader: truncated input");
    std::vector<T> v(n);
    if (n > 0) {
      std::memcpy(v.data(), peek(n * sizeof(T)), n * sizeof(T));
      pos_ += n * sizeof(T);
    }
    return v;
  }

  const char* peek(size_t n) {
    SDB_CHECK(n <= size_ - pos_, "BinaryReader: truncated input");
    return data_ + pos_;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Write/read a whole buffer to/from a file. Aborts on IO failure.
void write_file(const std::string& path, const std::vector<char>& data);
std::vector<char> read_file(const std::string& path);

/// Read the file at `path` into dst[0, size) when it holds exactly `size`
/// bytes, and return its size either way: a file of any other size reads
/// nothing, so the caller sees the mismatch. Aborts on IO failure.
size_t read_file_into(const std::string& path, char* dst, size_t size);

/// The payload of a sealed buffer (`payload | u64 fnv1a(payload)`), or
/// nothing when `bytes` is under 8 bytes or its trailer differs.
std::optional<std::span<const char>> unseal(std::span<const char> bytes);

/// Append one frame, `u32 len | payload | u64 fnv1a(payload)`.
void put_frame(BinaryWriter& w, std::span<const char> payload);

/// The payload of the frame at bytes[pos], advancing `pos` past the frame;
/// nothing, with `pos` unchanged, when the frame runs past the end of
/// `bytes` or fails its checksum. Requires pos <= bytes.size().
std::optional<std::span<const char>> next_frame(std::span<const char> bytes,
                                                size_t& pos);

}  // namespace sdb
