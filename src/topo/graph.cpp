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
  adj_[ia].push_back(Traversal{l.a, l.b});
  adj_[ib].push_back(Traversal{l.b, l.a});
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
    std::erase_if(adj_[index], [&](const Traversal& t) {
      return t.from == from && t.to == to;
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
  if (!idx) return false;
  const std::vector<PortRef>& ports = switch_ports_[*idx];
  const auto it =
      std::lower_bound(ports.begin(), ports.end(), loc.port,
                       [](const PortRef& r, PortNo p) { return r.port < p; });
  return it != ports.end() && it->port == loc.port;
}

std::vector<Link> TopologyGraph::links() const { return links_view(); }

const std::vector<Link>& TopologyGraph::links_view() const {
  if (links_view_epoch_ != epoch_) {
    links_view_.assign(link_slots_.begin(), link_slots_.end());
    std::sort(links_view_.begin(), links_view_.end());
    links_view_epoch_ = epoch_;
  }
  return links_view_;
}

std::optional<std::vector<TopologyGraph::Traversal>> TopologyGraph::path(
    Dpid from, Dpid to) const {
  if (from == to) return std::vector<Traversal>{};
  const auto from_idx = switch_index(from);
  const auto to_idx = switch_index(to);
  if (!from_idx || !to_idx) return std::nullopt;

  // Stamp-recycled scratch: grow once, then reuse across queries.
  const std::size_t n = index_to_dpid_.size();
  if (bfs_stamp_.size() < n) {
    bfs_stamp_.resize(n, 0);
    bfs_parent_.resize(n);
  }
  const std::uint64_t round = ++bfs_round_;
  bfs_queue_.clear();

  bfs_stamp_[*from_idx] = round;
  bfs_queue_.push_back(*from_idx);
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const std::uint32_t cur = bfs_queue_[head];
    for (const Traversal& t : adj_[cur]) {
      const std::uint32_t next = *switch_index(t.to.dpid);
      if (bfs_stamp_[next] == round) continue;
      bfs_stamp_[next] = round;
      bfs_parent_[next] = t;
      if (next == *to_idx) {
        std::vector<Traversal> result;
        std::uint32_t walk = next;
        while (walk != *from_idx) {
          const Traversal& step = bfs_parent_[walk];
          result.push_back(step);
          walk = *switch_index(step.from.dpid);
        }
        std::reverse(result.begin(), result.end());
        return result;
      }
      bfs_queue_.push_back(next);
    }
  }
  return std::nullopt;
}

void TopologyGraph::clear() {
  link_slots_.clear();
  key_to_slot_.clear();
  dpid_to_index_.clear();
  index_to_dpid_.clear();
  adj_.clear();
  switch_ports_.clear();
  bfs_stamp_.clear();
  bfs_parent_.clear();
  bfs_queue_.clear();
  bfs_round_ = 0;
  ++epoch_;
}

std::vector<std::string> TopologyGraph::audit() const {
  std::vector<std::string> issues;
  const auto has_traversal = [&](Location from, Location to) {
    const auto idx = switch_index(from.dpid);
    if (!idx) return false;
    return std::any_of(
        adj_[*idx].begin(), adj_[*idx].end(),
        [&](const Traversal& t) { return t.from == from && t.to == to; });
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
    for (const Traversal& t : adj_[i]) {
      if (t.from.dpid != dpid) {
        issues.push_back("adjacency of dpid " + std::to_string(dpid) +
                         " holds foreign traversal " + t.from.to_string() +
                         "->" + t.to.to_string());
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
