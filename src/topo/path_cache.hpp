// Epoch-keyed memoization of TopologyGraph::path().
//
// The controller's routing service answers every unicast packet-in with
// a shortest path between two switches. In steady state the topology is
// static, so the BFS answer for a (src, dst) pair cannot change between
// link events — exactly the memoization production controllers apply.
// Correctness hinges on invalidation: a fabricated link (the paper's
// link-fabrication attack) or a removed one MUST change routing
// immediately. We get that for free by keying every cache entry on
// TopologyGraph::epoch(): any successful add_link/remove_link/clear
// bumps the epoch, so a lookup after tampering misses and re-runs BFS
// against the poisoned graph. A stale path can never be served because
// an entry is only ever returned when its stored epoch equals the
// graph's current epoch.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "topo/graph.hpp"

namespace tmg::topo {

class PathCache {
 public:
  explicit PathCache(const TopologyGraph& graph) : graph_{graph} {}

  /// Same contract as TopologyGraph::path(). Serves a memoized traversal
  /// list when one exists for the current topology epoch; otherwise runs
  /// BFS and stores the result (including "unreachable").
  [[nodiscard]] std::optional<std::vector<TopologyGraph::Traversal>> path(
      Dpid from, Dpid to);

  /// Entries stored for the current epoch (stale ones are purged lazily).
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

  void clear();

  /// Coherence audit: re-runs BFS for every cached pair and reports any
  /// entry whose stored answer differs from the fresh computation.
  /// Returns a deterministic sorted list of violations (empty = healthy).
  /// Wired into check::InvariantChecker's cache audit.
  [[nodiscard]] std::vector<std::string> audit() const;

 private:
  struct Key {
    Dpid from;
    Dpid to;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>{}((k.from << 20) ^ k.to);
    }
  };

  const TopologyGraph& graph_;
  std::uint64_t epoch_ = 0;  // epoch the stored entries were computed at
  std::unordered_map<Key, std::optional<std::vector<TopologyGraph::Traversal>>,
                     KeyHash>
      entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace tmg::topo
