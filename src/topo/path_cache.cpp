#include "topo/path_cache.hpp"

#include <algorithm>

namespace tmg::topo {

namespace {

bool same_path(
    const std::optional<std::vector<TopologyGraph::Traversal>>& a,
    const std::optional<std::vector<TopologyGraph::Traversal>>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  if (a->size() != b->size()) return false;
  for (std::size_t i = 0; i < a->size(); ++i) {
    if (!((*a)[i].from == (*b)[i].from && (*a)[i].to == (*b)[i].to)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<std::vector<TopologyGraph::Traversal>> PathCache::path(
    Dpid from, Dpid to) {
  if (epoch_ != graph_.epoch()) {
    // Topology changed since the entries were computed (possibly by a
    // fabricated link): nothing stored may be served.
    entries_.clear();
    epoch_ = graph_.epoch();
  }
  const Key key{from, to};
  if (const auto it = entries_.find(key); it != entries_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  auto result = graph_.path(from, to);
  entries_.emplace(key, result);
  return result;
}

void PathCache::clear() {
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
}

std::vector<std::string> PathCache::audit() const {
  std::vector<std::string> issues;
  if (epoch_ != graph_.epoch() || entries_.empty()) return issues;
  // tmglint: allow(unordered-iter) issues are sorted below
  for (const auto& [key, cached] : entries_) {
    const auto fresh = graph_.path(key.from, key.to);
    if (!same_path(cached, fresh)) {
      issues.push_back("path cache entry (" + std::to_string(key.from) +
                       " -> " + std::to_string(key.to) +
                       ") diverges from fresh BFS at epoch " +
                       std::to_string(epoch_));
    }
  }
  std::sort(issues.begin(), issues.end());
  return issues;
}

}  // namespace tmg::topo
