// Switch flow table: priority-ordered rules with counters and timeouts.
//
// One vector, sorted by descending priority (stable for ties), and every
// operation scans it in order. Tables are small: in a fleet_k16 run
// they held 4.36 entries on average and 41 at most, and a lookup tests
// 4.32 entries, so a scan is cheaper than hashing the packet's dst MAC
// into an index (DESIGN.md §8b). tests/fastpath_test.cpp drives every
// operation against the same algorithm kept as a test oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "of/messages.hpp"
#include "sim/time.hpp"

namespace tmg::of {

struct FlowEntry {
  std::uint64_t cookie = 0;
  FlowMatch match;
  FlowAction action;
  std::uint16_t priority = 100;
  sim::Duration idle_timeout = sim::Duration::zero();
  sim::Duration hard_timeout = sim::Duration::zero();
  bool notify_on_removal = true;

  // Counters / bookkeeping.
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  sim::SimTime installed_at;
  sim::SimTime last_matched_at;
};

/// Reason a sweep removed an entry.
struct ExpiredEntry {
  FlowEntry entry;
  FlowRemoved::Reason reason = FlowRemoved::Reason::IdleTimeout;
};

class FlowTable {
 public:
  /// Install (or replace an identical-match, identical-priority) entry.
  void add(FlowEntry entry, sim::SimTime now);

  /// Remove all entries whose match equals `match` exactly. Returns the
  /// removed entries.
  std::vector<FlowEntry> remove_matching(const FlowMatch& match);

  /// Find the highest-priority entry matching the packet; updates its
  /// counters and last-match time. Returns nullptr on table miss.
  FlowEntry* lookup(const net::Packet& pkt, PortNo in_port, sim::SimTime now);

  /// Highest-priority entry that matches the packet AND explicitly pins
  /// match.ethertype to LLDP; counters update only on such a hit.
  /// Entries with a wildcard or different ethertype are invisible here,
  /// so pre-existing rules can never start capturing LLDP — only a rule
  /// deliberately installed against 0x88cc overrides the controller
  /// punt (the flow-rule-relay attack surface; see Switch::on_rx).
  FlowEntry* lookup_lldp_override(const net::Packet& pkt, PortNo in_port,
                                  sim::SimTime now);

  /// Remove and return entries whose idle/hard timeout elapsed at `now`,
  /// in table order.
  std::vector<ExpiredEntry> expire(sim::SimTime now);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::vector<FlowEntry>& entries() const {
    return entries_;
  }

  /// The table must be priority-sorted, the property every scan's
  /// first-hit rule rests on. Returns a list of violations.
  [[nodiscard]] std::vector<std::string> audit() const;

 private:
  // Kept sorted by descending priority (stable for equal priorities).
  std::vector<FlowEntry> entries_;
};

}  // namespace tmg::of
