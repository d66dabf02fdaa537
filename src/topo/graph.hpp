// Controller-side topology graph.
//
// Vertices are switch DPIDs; edges are inter-switch links keyed by their
// two (dpid, port) endpoints. This is exactly the state the paper's
// link-fabrication attacks poison: a relayed LLDP packet manufactures an
// edge here that has no physical counterpart.
//
// Fleet-scale layout (DESIGN.md §12): DPIDs are interned into a
// contiguous index space on first sight, and adjacency lives in flat
// per-index vectors instead of per-dpid hash buckets. Every adjacency
// entry carries its far switch's interned index, so BFS walks indices
// and never hashes a dpid per edge. The traversal order (per-switch
// adjacency in insertion order, FIFO frontier) is bit-identical to the
// original hash-bucket implementation, so every paper-size result is
// unchanged. Which ports are switch-internal is a per-switch table of
// link refcounts indexed by port number (DESIGN.md §8f), so host
// tracking classifies each Packet-In's ingress with one bounds check and
// one load.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "of/messages.hpp"

namespace tmg::topo {

using of::Dpid;
using of::Location;
using of::PortNo;

/// "No switch": an unreached BFS tree node, or a message that no switch
/// originated.
inline constexpr std::uint32_t kNoSwitch = ~std::uint32_t{0};

/// Undirected inter-switch link; endpoints stored in canonical order.
struct Link {
  Location a;
  Location b;

  Link() = default;
  Link(Location x, Location y);

  auto operator<=>(const Link&) const = default;
  [[nodiscard]] std::string to_string() const;
};

class TopologyGraph {
 public:
  /// Insert a link. Returns true if it was new.
  bool add_link(Location x, Location y);

  /// Remove a link. Returns true if it existed.
  bool remove_link(Location x, Location y);

  /// Monotonically increasing mutation counter: bumped by every
  /// successful add_link / remove_link and by clear(). Any structure
  /// memoizing a function of the link set (topo::PathCache) keys its
  /// entries on this epoch, so a fabricated or removed link — the very
  /// state the paper's attacks poison — invalidates every cached answer
  /// by construction.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  [[nodiscard]] bool has_link(Location x, Location y) const;

  /// True if this (dpid, port) is an endpoint of any known link (i.e. a
  /// switch-internal port; host tracking ignores traffic from such ports).
  /// One dpid hash, then the indexed overload.
  [[nodiscard]] bool is_switch_port(Location loc) const;
  /// Same, for the switch interned at `index`: a bounds check and a load
  /// in that switch's refcount table. An unknown index, or a port past
  /// the table, is not a switch port.
  [[nodiscard]] bool is_switch_port(std::uint32_t index, PortNo port) const;

  /// Sorted snapshot of every link (copy). No benchmark trial calls
  /// it: its users are set-up, tests and SPHINX's opt-in symmetry check.
  [[nodiscard]] std::vector<Link> links() const;

  [[nodiscard]] std::size_t link_count() const { return link_slots_.size(); }

  /// Number of distinct switch DPIDs ever interned.
  [[nodiscard]] std::size_t switch_count() const {
    return index_to_dpid_.size();
  }

  /// Interned contiguous index for `dpid` (nullopt if never seen). The
  /// index is stable for the graph's lifetime (clear() keeps it) —
  /// dense per-switch side tables in other modules key off it.
  [[nodiscard]] std::optional<std::uint32_t> switch_index(Dpid dpid) const;

  /// Index for `dpid`, interning it on first sight. Adds no link, so
  /// epoch() is unchanged: a switch with no links is unreachable from
  /// every other switch whether or not it is interned.
  std::uint32_t intern(Dpid dpid);

  /// Inverse of switch_index: the dpid interned at `index`.
  [[nodiscard]] Dpid switch_at(std::uint32_t index) const {
    return index_to_dpid_[index];
  }

  /// Shortest switch-to-switch path (BFS, unweighted). Each element is
  /// the link traversed, oriented from source toward destination: the
  /// first.a.dpid == from, the last "to" endpoint's dpid == to. Returns
  /// an empty vector when from == to, nullopt when unreachable.
  struct Traversal {
    Location from;  // egress on the near switch
    Location to;    // ingress on the far switch
  };
  [[nodiscard]] std::optional<std::vector<Traversal>> path(Dpid from,
                                                           Dpid to) const;

  /// How BFS first reached one switch: the interned index of the switch
  /// it came from, and the position of that traversal in the parent's
  /// adjacency list. The root is its own parent; kNoSwitch = unreached.
  struct TreeNode {
    std::uint32_t parent = kNoSwitch;
    std::uint32_t arc = 0;
  };
  /// One BFS tree, indexed by interned switch index. The arc positions
  /// are valid only at the epoch the tree was built.
  using BfsTree = std::vector<TreeNode>;

  /// Full BFS from the switch interned at `root`. BFS discovers switches
  /// in the same order whether or not it stops at a destination, so
  /// tree_path() on the result equals path() for every destination.
  void bfs_tree(std::uint32_t root, BfsTree& tree) const;

  /// The path from `tree`'s root to the switch interned at `to`, with
  /// path()'s contract; nullopt when `to` is unreached or was interned
  /// after the tree was built.
  [[nodiscard]] std::optional<std::vector<Traversal>> tree_path(
      const BfsTree& tree, std::uint32_t to) const;

  /// Drops every link and zeroes the port refcounts. Interned indices
  /// survive, so side tables keyed on switch_index() stay valid.
  void clear();

  /// Self-consistency audit: every stored link must appear in the
  /// adjacency index oriented both ways (a->b and b->a), every
  /// adjacency traversal must correspond to a stored link, and the
  /// per-port link refcounts must match the stored link set both ways
  /// (every nonzero count equals the link ends at that port, and every
  /// link end has a nonzero count). Returns a deterministic, sorted list
  /// of violation descriptions (empty when healthy). Used by the runtime
  /// invariant checker.
  [[nodiscard]] std::vector<std::string> audit() const;

 private:
  /// Count of stored link ends at one (switch, port). Distinct links
  /// may share an endpoint port (a fabricated link can claim a port a
  /// real link already uses), hence a count, not a flag. 16 bits: a
  /// fabricated LLDP can name any of the 65,535 port numbers, so a
  /// table may grow that long.
  using PortRefs = std::uint16_t;

  /// One adjacency entry: the traversal plus its far switch's index.
  struct Arc {
    Traversal hop;
    std::uint32_t next = 0;
  };

  [[nodiscard]] static std::uint64_t key(const Link& l);
  /// BFS from `root` into `tree`, stopping as soon as `stop` is reached
  /// (kNoSwitch: never). Returns true if `stop` was reached.
  bool bfs(std::uint32_t root, std::uint32_t stop, BfsTree& tree) const;
  void add_port_ref(std::uint32_t index, PortNo port);
  void drop_port_ref(std::uint32_t index, PortNo port);

  // Dense link store: slots in insertion order, removal swap-pops.
  std::vector<Link> link_slots_;
  std::unordered_map<std::uint64_t, std::uint32_t> key_to_slot_;

  // DPID interning: contiguous indices in first-seen order.
  std::unordered_map<Dpid, std::uint32_t> dpid_to_index_;
  std::vector<Dpid> index_to_dpid_;

  // Flat adjacency: index -> oriented traversals out of that switch, in
  // link-insertion order (the order BFS ties break on).
  std::vector<std::vector<Arc>> adj_;
  // index -> link ends per port number, backing is_switch_port(); grown
  // to the largest port a stored link has touched.
  std::vector<std::vector<PortRefs>> port_refs_;

  std::uint64_t epoch_ = 0;

  // BFS scratch, reused across calls: no allocation once the arrays
  // have grown to the switch count.
  mutable BfsTree path_tree_;
  mutable std::vector<std::uint32_t> bfs_queue_;
};

}  // namespace tmg::topo
