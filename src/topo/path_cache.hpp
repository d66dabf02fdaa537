// Epoch-keyed memoization of TopologyGraph::path(): one BFS tree per
// source switch.
//
// The controller's routing service answers every unicast packet-in with
// a shortest path between two switches. In steady state the topology is
// static, so the BFS answer from a source cannot change between link
// events — exactly the memoization production controllers apply. One
// full BFS from a source discovers switches in the same order as the
// early-exit BFS of path() would for any destination, so one stored
// tree (8 bytes per switch) answers every destination from that source.
// Correctness hinges on invalidation: a fabricated link (the paper's
// link-fabrication attack) or a removed one MUST change routing
// immediately. We get that for free by keying every stored tree on
// TopologyGraph::epoch(): any successful add_link/remove_link/clear
// bumps the epoch, so a lookup after tampering misses and re-runs BFS
// against the poisoned graph. A stale path can never be served because
// a tree is only ever read when its epoch equals the graph's current
// epoch.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "topo/graph.hpp"

namespace tmg::topo {

class PathCache {
 public:
  explicit PathCache(const TopologyGraph& graph) : graph_{graph} {}

  /// Same contract as TopologyGraph::path(). Answers from the current
  /// epoch's BFS tree rooted at `from`, building it on first use.
  /// Every query with from != to counts one hit or one miss.
  [[nodiscard]] std::optional<std::vector<TopologyGraph::Traversal>> path(
      Dpid from, Dpid to);

  /// Trees stored for the current epoch (stale ones are dropped lazily).
  [[nodiscard]] std::size_t size() const { return roots_.size(); }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

  void clear();

  /// Coherence audit: rebuilds every stored tree from a fresh BFS and
  /// reports any tree that differs. Returns a deterministic sorted list
  /// of violations (empty = healthy). Wired into
  /// check::InvariantChecker's cache audit.
  [[nodiscard]] std::vector<std::string> audit() const;

 private:
  /// Drop every stored tree (capacity is kept for reuse).
  void drop_trees();

  const TopologyGraph& graph_;
  std::uint64_t epoch_ = 0;  // epoch the stored trees were built at
  // trees_[i] is the tree rooted at switch index i; empty = not built
  // at epoch_.
  std::vector<TopologyGraph::BfsTree> trees_;
  std::vector<std::uint32_t> roots_;  // built at epoch_, in build order
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace tmg::topo
