#include "topo/graph.hpp"

#include <algorithm>

namespace tmg::topo {

Link::Link(Location x, Location y) {
  if (y < x) std::swap(x, y);
  a = x;
  b = y;
}

std::string Link::to_string() const {
  return a.to_string() + "<->" + b.to_string();
}

std::uint64_t TopologyGraph::key(const Link& l) {
  // Mix the four small fields into one 64-bit key.
  const std::uint64_t ha = (l.a.dpid << 16) ^ l.a.port;
  const std::uint64_t hb = (l.b.dpid << 16) ^ l.b.port;
  return ha * 0x9e3779b97f4a7c15ULL ^ (hb + 0x7f4a7c159e3779b9ULL);
}

std::uint32_t TopologyGraph::intern(Dpid dpid) {
  const auto [it, inserted] = dpid_to_index_.try_emplace(
      dpid, static_cast<std::uint32_t>(index_to_dpid_.size()));
  if (inserted) {
    index_to_dpid_.push_back(dpid);
    adj_.emplace_back();
    switch_ports_.emplace_back();
  }
  return it->second;
}

std::optional<std::uint32_t> TopologyGraph::switch_index(Dpid dpid) const {
  const auto it = dpid_to_index_.find(dpid);
  if (it == dpid_to_index_.end()) return std::nullopt;
  return it->second;
}

void TopologyGraph::add_port_ref(std::uint32_t index, PortNo port) {
  std::vector<PortRef>& ports = switch_ports_[index];
  const auto it =
      std::lower_bound(ports.begin(), ports.end(), port,
                       [](const PortRef& r, PortNo p) { return r.port < p; });
  if (it != ports.end() && it->port == port) {
    ++it->refs;
  } else {
    ports.insert(it, PortRef{port, 1});
  }
}

void TopologyGraph::drop_port_ref(std::uint32_t index, PortNo port) {
  std::vector<PortRef>& ports = switch_ports_[index];
  const auto it =
      std::lower_bound(ports.begin(), ports.end(), port,
                       [](const PortRef& r, PortNo p) { return r.port < p; });
  if (it == ports.end() || it->port != port) return;
  if (--it->refs == 0) ports.erase(it);
}

bool TopologyGraph::add_link(Location x, Location y) {
  const Link l{x, y};
  const auto [it, inserted] = key_to_slot_.try_emplace(
      key(l), static_cast<std::uint32_t>(link_slots_.size()));
  if (!inserted) return false;
  ++epoch_;
  link_slots_.push_back(l);
  const std::uint32_t ia = intern(l.a.dpid);
  const std::uint32_t ib = intern(l.b.dpid);
  adj_[ia].push_back(Arc{Traversal{l.a, l.b}, ib});
  adj_[ib].push_back(Arc{Traversal{l.b, l.a}, ia});
  add_port_ref(ia, l.a.port);
  add_port_ref(ib, l.b.port);
  return true;
}

bool TopologyGraph::remove_link(Location x, Location y) {
  const Link l{x, y};
  const auto it = key_to_slot_.find(key(l));
  if (it == key_to_slot_.end()) return false;
  ++epoch_;
  // Swap-pop the dense slot and repoint the moved link's key.
  const std::uint32_t slot = it->second;
  key_to_slot_.erase(it);
  if (slot + 1 != link_slots_.size()) {
    link_slots_[slot] = link_slots_.back();
    key_to_slot_[key(link_slots_[slot])] = slot;
  }
  link_slots_.pop_back();
  // Adjacency erase keeps relative order, preserving BFS tie-breaks.
  const auto drop = [&](std::uint32_t index, Location from, Location to) {
    std::erase_if(adj_[index], [&](const Arc& arc) {
      return arc.hop.from == from && arc.hop.to == to;
    });
  };
  const std::uint32_t ia = *switch_index(l.a.dpid);
  const std::uint32_t ib = *switch_index(l.b.dpid);
  drop(ia, l.a, l.b);
  drop(ib, l.b, l.a);
  drop_port_ref(ia, l.a.port);
  drop_port_ref(ib, l.b.port);
  return true;
}

bool TopologyGraph::has_link(Location x, Location y) const {
  return key_to_slot_.contains(key(Link{x, y}));
}

bool TopologyGraph::is_switch_port(Location loc) const {
  const auto idx = switch_index(loc.dpid);
  return idx && is_switch_port(*idx, loc.port);
}

bool TopologyGraph::is_switch_port(std::uint32_t index, PortNo port) const {
  if (index >= switch_ports_.size()) return false;
  const std::vector<PortRef>& ports = switch_ports_[index];
  const auto it =
      std::lower_bound(ports.begin(), ports.end(), port,
                       [](const PortRef& r, PortNo p) { return r.port < p; });
  return it != ports.end() && it->port == port;
}

std::vector<Link> TopologyGraph::links() const {
  std::vector<Link> out = link_slots_;
  std::sort(out.begin(), out.end());
  return out;
}

bool TopologyGraph::bfs(std::uint32_t root, std::uint32_t stop,
                        BfsTree& tree) const {
  tree.assign(index_to_dpid_.size(), TreeNode{});
  tree[root].parent = root;
  bfs_queue_.clear();
  bfs_queue_.push_back(root);
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const std::uint32_t cur = bfs_queue_[head];
    const std::vector<Arc>& arcs = adj_[cur];
    for (std::uint32_t pos = 0; pos < arcs.size(); ++pos) {
      const std::uint32_t next = arcs[pos].next;
      if (tree[next].parent != kNoSwitch) continue;
      tree[next] = TreeNode{cur, pos};
      if (next == stop) return true;
      bfs_queue_.push_back(next);
    }
  }
  return false;
}

void TopologyGraph::bfs_tree(std::uint32_t root, BfsTree& tree) const {
  bfs(root, kNoSwitch, tree);
}

std::optional<std::vector<TopologyGraph::Traversal>> TopologyGraph::tree_path(
    const BfsTree& tree, std::uint32_t to) const {
  if (to >= tree.size() || tree[to].parent == kNoSwitch) return std::nullopt;
  std::vector<Traversal> result;
  for (std::uint32_t walk = to; tree[walk].parent != walk;
       walk = tree[walk].parent) {
    result.push_back(adj_[tree[walk].parent][tree[walk].arc].hop);
  }
  std::reverse(result.begin(), result.end());
  return result;
}

std::optional<std::vector<TopologyGraph::Traversal>> TopologyGraph::path(
    Dpid from, Dpid to) const {
  if (from == to) return std::vector<Traversal>{};
  const auto from_idx = switch_index(from);
  const auto to_idx = switch_index(to);
  if (!from_idx || !to_idx) return std::nullopt;
  if (!bfs(*from_idx, *to_idx, path_tree_)) return std::nullopt;
  return tree_path(path_tree_, *to_idx);
}

void TopologyGraph::clear() {
  link_slots_.clear();
  key_to_slot_.clear();
  for (auto& arcs : adj_) arcs.clear();
  for (auto& ports : switch_ports_) ports.clear();
  ++epoch_;
}

std::vector<std::string> TopologyGraph::audit() const {
  std::vector<std::string> issues;
  const auto has_traversal = [&](Location from, Location to) {
    const auto idx = switch_index(from.dpid);
    if (!idx) return false;
    return std::any_of(adj_[*idx].begin(), adj_[*idx].end(),
                       [&](const Arc& arc) {
                         return arc.hop.from == from && arc.hop.to == to;
                       });
  };
  // Every link must be indexed in both orientations (link symmetry).
  for (const Link& l : link_slots_) {
    if (!has_traversal(l.a, l.b)) {
      issues.push_back("link " + l.to_string() + " missing forward adjacency " +
                       l.a.to_string() + "->" + l.b.to_string());
    }
    if (!has_traversal(l.b, l.a)) {
      issues.push_back("link " + l.to_string() + " missing reverse adjacency " +
                       l.b.to_string() + "->" + l.a.to_string());
    }
  }
  // Every adjacency traversal must be backed by a stored link.
  for (std::size_t i = 0; i < adj_.size(); ++i) {
    const Dpid dpid = index_to_dpid_[i];
    for (const Arc& arc : adj_[i]) {
      const Traversal& t = arc.hop;
      if (t.from.dpid != dpid) {
        issues.push_back("adjacency of dpid " + std::to_string(dpid) +
                         " holds foreign traversal " + t.from.to_string() +
                         "->" + t.to.to_string());
      }
      if (arc.next >= index_to_dpid_.size() ||
          index_to_dpid_[arc.next] != t.to.dpid) {
        issues.push_back("adjacency " + t.from.to_string() + "->" +
                         t.to.to_string() + " points at the wrong index");
      }
      if (!key_to_slot_.contains(key(Link{t.from, t.to}))) {
        issues.push_back("dangling adjacency " + t.from.to_string() + "->" +
                         t.to.to_string() + " without a stored link");
      }
    }
  }
  // The slot map must point every key at the slot actually holding it.
  // tmglint: allow(unordered-iter) issues are sorted below
  for (const auto& [k, slot] : key_to_slot_) {
    if (slot >= link_slots_.size() || key(link_slots_[slot]) != k) {
      issues.push_back("link slot map entry " + std::to_string(k) +
                       " points at a mismatched slot");
    }
  }
  // Per-port refcounts must equal the number of stored links touching
  // that (switch, port) endpoint.
  for (std::size_t i = 0; i < switch_ports_.size(); ++i) {
    for (const PortRef& r : switch_ports_[i]) {
      const Location loc{index_to_dpid_[i], r.port};
      std::uint32_t expect = 0;
      for (const Link& l : link_slots_) {
        if (l.a == loc || l.b == loc) ++expect;
      }
      if (r.refs != expect) {
        issues.push_back("port ref " + loc.to_string() + " counts " +
                         std::to_string(r.refs) + " links, graph stores " +
                         std::to_string(expect));
      }
    }
  }
  std::sort(issues.begin(), issues.end());
  return issues;
}

}  // namespace tmg::topo
