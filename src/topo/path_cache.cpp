#include "topo/path_cache.hpp"

#include <algorithm>

namespace tmg::topo {

namespace {

// A switch interned after `stored` was built has no links (interning
// alone keeps the epoch), so `fresh` must leave it unreached.
bool same_tree(const TopologyGraph::BfsTree& stored,
               const TopologyGraph::BfsTree& fresh) {
  if (stored.size() > fresh.size()) return false;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const TopologyGraph::TreeNode want =
        i < stored.size() ? stored[i] : TopologyGraph::TreeNode{};
    if (want.parent != fresh[i].parent || want.arc != fresh[i].arc) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<std::vector<TopologyGraph::Traversal>> PathCache::path(
    Dpid from, Dpid to) {
  if (from == to) return std::vector<TopologyGraph::Traversal>{};
  if (epoch_ != graph_.epoch()) {
    // Topology changed since the trees were built (possibly by a
    // fabricated link): nothing stored may be served.
    drop_trees();
    epoch_ = graph_.epoch();
  }
  const auto root = graph_.switch_index(from);
  if (!root) {
    ++misses_;
    return std::nullopt;
  }
  if (*root >= trees_.size()) trees_.resize(*root + 1);
  TopologyGraph::BfsTree& tree = trees_[*root];
  if (tree.empty()) {
    ++misses_;
    graph_.bfs_tree(*root, tree);
    roots_.push_back(*root);
  } else {
    ++hits_;
  }
  const auto dst = graph_.switch_index(to);
  if (!dst) return std::nullopt;
  return graph_.tree_path(tree, *dst);
}

void PathCache::drop_trees() {
  for (const std::uint32_t root : roots_) trees_[root].clear();
  roots_.clear();
}

void PathCache::clear() {
  drop_trees();
  hits_ = 0;
  misses_ = 0;
}

std::vector<std::string> PathCache::audit() const {
  std::vector<std::string> issues;
  if (epoch_ != graph_.epoch()) return issues;
  TopologyGraph::BfsTree fresh;
  for (const std::uint32_t root : roots_) {
    graph_.bfs_tree(root, fresh);
    if (!same_tree(trees_[root], fresh)) {
      issues.push_back("path cache tree rooted at " +
                       std::to_string(graph_.switch_at(root)) +
                       " diverges from fresh BFS at epoch " +
                       std::to_string(epoch_));
    }
  }
  std::sort(issues.begin(), issues.end());
  return issues;
}

}  // namespace tmg::topo
