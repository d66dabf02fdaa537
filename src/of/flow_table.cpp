#include "of/flow_table.hpp"

#include <algorithm>

namespace tmg::of {

namespace {

/// The match explicitly pins the LLDP ethertype (override path).
bool pins_lldp(const FlowMatch& m) {
  return m.ethertype.has_value() && *m.ethertype == net::EtherType::Lldp;
}

FlowEntry* hit(FlowEntry& e, const net::Packet& pkt, sim::SimTime now) {
  ++e.packet_count;
  e.byte_count += pkt.wire_size();
  e.last_matched_at = now;
  return &e;
}

}  // namespace

void FlowTable::add(FlowEntry entry, sim::SimTime now) {
  entry.installed_at = now;
  entry.last_matched_at = now;
  for (FlowEntry& e : entries_) {
    if (e.priority == entry.priority && e.match == entry.match) {
      e = std::move(entry);
      return;
    }
  }
  const auto pos = std::find_if(
      entries_.begin(), entries_.end(),
      [&](const FlowEntry& e) { return e.priority < entry.priority; });
  entries_.insert(pos, std::move(entry));
}

std::vector<FlowEntry> FlowTable::remove_matching(const FlowMatch& match) {
  std::vector<FlowEntry> removed;
  std::erase_if(entries_, [&](const FlowEntry& e) {
    if (!(e.match == match)) return false;
    removed.push_back(e);
    return true;
  });
  return removed;
}

FlowEntry* FlowTable::lookup(const net::Packet& pkt, PortNo in_port,
                             sim::SimTime now) {
  for (FlowEntry& e : entries_) {
    if (e.match.matches(pkt, in_port)) return hit(e, pkt, now);
  }
  return nullptr;
}

FlowEntry* FlowTable::lookup_lldp_override(const net::Packet& pkt,
                                           PortNo in_port, sim::SimTime now) {
  for (FlowEntry& e : entries_) {
    if (pins_lldp(e.match) && e.match.matches(pkt, in_port)) {
      return hit(e, pkt, now);
    }
  }
  return nullptr;
}

std::vector<ExpiredEntry> FlowTable::expire(sim::SimTime now) {
  std::vector<ExpiredEntry> expired;
  std::erase_if(entries_, [&](const FlowEntry& e) {
    const bool hard = e.hard_timeout > sim::Duration::zero() &&
                      now - e.installed_at >= e.hard_timeout;
    const bool idle = e.idle_timeout > sim::Duration::zero() &&
                      now - e.last_matched_at >= e.idle_timeout;
    if (!hard && !idle) return false;
    expired.push_back(ExpiredEntry{e, hard ? FlowRemoved::Reason::HardTimeout
                                           : FlowRemoved::Reason::IdleTimeout});
    return true;
  });
  return expired;
}

std::vector<std::string> FlowTable::audit() const {
  std::vector<std::string> issues;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i - 1].priority < entries_[i].priority) {
      issues.push_back("flow table not priority-sorted at position " +
                       std::to_string(i));
    }
  }
  return issues;
}

}  // namespace tmg::of
