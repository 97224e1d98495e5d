#include "util/serialize.hpp"

#include <charconv>
#include <cstdio>

#include "util/counters.hpp"
#include "util/fnv.hpp"

namespace sdb {

template <typename Bytes>
void BasicBinaryWriter<Bytes>::append(const void* p, size_t n) {
  const char* c = static_cast<const char*>(p);
  buf_.insert(buf_.end(), c, c + n);
}

template class BasicBinaryWriter<std::vector<char>>;
template class BasicBinaryWriter<std::string>;

void write_file(const std::string& path, const std::vector<char>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  SDB_CHECK(f != nullptr, "cannot open for write: " + path);
  if (!data.empty()) {
    const size_t n = std::fwrite(data.data(), 1, data.size(), f);
    SDB_CHECK(n == data.size(), "short write: " + path);
  }
  std::fclose(f);
  counters::bytes_written(data.size());
}

std::vector<char> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  SDB_CHECK(f != nullptr, "cannot open for read: " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  SDB_CHECK(size >= 0, "ftell failed: " + path);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> data(static_cast<size_t>(size));
  if (size > 0) {
    const size_t n = std::fread(data.data(), 1, data.size(), f);
    SDB_CHECK(n == data.size(), "short read: " + path);
  }
  std::fclose(f);
  counters::bytes_read(data.size());
  return data;
}

size_t read_file_into(const std::string& path, char* dst, size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  SDB_CHECK(f != nullptr, "cannot open for read: " + path);
  std::setvbuf(f, nullptr, _IONBF, 0);  // one fread straight into dst
  std::fseek(f, 0, SEEK_END);
  const long actual = std::ftell(f);
  SDB_CHECK(actual >= 0, "ftell failed: " + path);
  if (static_cast<size_t>(actual) == size && size > 0) {
    std::fseek(f, 0, SEEK_SET);
    const size_t n = std::fread(dst, 1, size, f);
    SDB_CHECK(n == size, "short read: " + path);
    counters::bytes_read(size);
  }
  std::fclose(f);
  return static_cast<size_t>(actual);
}

std::optional<u64> file_number(std::string_view name, std::string_view prefix,
                               std::string_view suffix) {
  if (name.size() < prefix.size() + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix)) {
    return std::nullopt;
  }
  const char* first = name.data() + prefix.size();
  const char* last = name.data() + name.size() - suffix.size();
  u64 number = 0;
  const auto [end, ec] = std::from_chars(first, last, number);
  if (ec != std::errc() || end != last) return std::nullopt;
  return number;
}

std::optional<std::span<const char>> unseal(std::span<const char> bytes) {
  if (bytes.size() < sizeof(u64)) return std::nullopt;
  const std::span<const char> payload = bytes.first(bytes.size() - sizeof(u64));
  u64 trailer = 0;
  std::memcpy(&trailer, bytes.data() + payload.size(), sizeof(trailer));
  if (trailer != fnv1a(payload.data(), payload.size())) return std::nullopt;
  return payload;
}

void put_frame(BinaryWriter& w, std::span<const char> payload) {
  w.write_u32(static_cast<u32>(payload.size()));
  w.write_bytes(payload.data(), payload.size());
  w.write_u64(fnv1a(payload.data(), payload.size()));
}

std::optional<std::span<const char>> next_frame(std::span<const char> bytes,
                                                size_t& pos) {
  // A frame is a u32 length followed by a sealed buffer of that payload.
  const std::span<const char> rest = bytes.subspan(pos);
  if (rest.size() < sizeof(u32)) return std::nullopt;
  u32 len = 0;
  std::memcpy(&len, rest.data(), sizeof(len));
  const size_t sealed = static_cast<size_t>(len) + sizeof(u64);
  if (rest.size() - sizeof(u32) < sealed) return std::nullopt;
  const auto payload = unseal(rest.subspan(sizeof(u32), sealed));
  if (payload) pos += sizeof(u32) + sealed;
  return payload;
}

}  // namespace sdb
