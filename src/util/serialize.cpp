#include "util/serialize.hpp"

#include <cstdio>

#include "util/counters.hpp"

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

}  // namespace sdb
