#include "cloud/region.hpp"

#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>

namespace sage::cloud::detail {

std::string_view synthetic_region_label(std::size_t index) {
  // Harness worlds run on sweep threads and all share this intern table;
  // labels are only built on slow paths (obs cells, table rendering), so a
  // plain mutex is fine. deque keeps addresses stable across growth.
  static std::mutex mu;
  static std::deque<std::string> storage;
  static std::unordered_map<std::size_t, std::string_view> by_index;
  std::lock_guard<std::mutex> lock(mu);
  auto it = by_index.find(index);
  if (it != by_index.end()) return it->second;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "R%03zu", index);
  storage.emplace_back(buf);
  const std::string_view view = storage.back();
  by_index.emplace(index, view);
  return view;
}

}  // namespace sage::cloud::detail
