#include "util/varint.hpp"

#include <algorithm>

namespace sdb {

void put_id_list(std::vector<char>& out, std::vector<i64> ids) {
  std::sort(ids.begin(), ids.end());
  put_varint(out, ids.size());
  i64 previous = 0;
  for (const i64 id : ids) {
    put_varint(out, zigzag(id - previous));
    previous = id;
  }
}

std::vector<i64> get_id_list(const char* data, size_t size, size_t& pos) {
  const u64 n = get_varint(data, size, pos);
  // Every id takes at least one byte: a longer count is truncated input,
  // caught here before it sizes the allocation.
  SDB_CHECK(n <= size - pos, "varint: truncated input");
  std::vector<i64> ids;
  ids.reserve(n);
  i64 previous = 0;
  for (u64 i = 0; i < n; ++i) {
    previous += unzigzag(get_varint(data, size, pos));
    ids.push_back(previous);
  }
  return ids;
}

}  // namespace sdb
