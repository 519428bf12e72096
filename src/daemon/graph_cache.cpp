#include "daemon/graph_cache.h"

#include <algorithm>

namespace sst::daemon {

std::uint64_t GraphCache::content_hash(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

const sdl::ConfigGraph& GraphCache::insert(std::uint64_t hash,
                                           const std::string& bytes) {
  auto graph = std::make_unique<sdl::ConfigGraph>(
      sdl::ConfigGraph::from_json_text(bytes));
  while (entries_.size() >= capacity_ && !order_.empty()) {
    entries_.erase(order_.front());
    order_.pop_front();
  }
  auto [it, inserted] = entries_.emplace(hash, std::move(graph));
  if (inserted) order_.push_back(hash);
  return *it->second;
}

std::uint64_t GraphCache::admit(const std::string& bytes,
                                const Factory& factory) {
  const std::uint64_t hash = content_hash(bytes);
  if (entries_.contains(hash)) {
    ++hits_;
    return hash;
  }
  ++misses_;
  const sdl::ConfigGraph& graph = insert(hash, bytes);
  try {
    graph.check(factory);
  } catch (const ConfigError&) {
    // Never cache an invalid model: evict so a corrected resubmission
    // with (improbably) the same hash revalidates.
    entries_.erase(hash);
    order_.erase(std::find(order_.begin(), order_.end(), hash));
    throw;
  }
  return hash;
}

const sdl::ConfigGraph& GraphCache::graph(std::uint64_t hash,
                                          const std::string& bytes) {
  auto it = entries_.find(hash);
  if (it != entries_.end()) {
    ++hits_;
    return *it->second;
  }
  ++misses_;
  return insert(hash, bytes);
}

}  // namespace sst::daemon
