// Open-addressed host-record store (DESIGN.md §12).
//
// The Host Tracking Service probes this table on every non-LLDP
// Packet-In, so a learn must not allocate per host or rehash a node
// table. Layout: one power-of-two array with linear probing, grown at
// 7/8 load. Host records are never erased (bindings are only created or
// rewritten — exactly the property Host Location Hijacking abuses), so
// there are no tombstones and probes stop at the first empty slot. The
// table starts at 64 slots; fleet_k16's 1,024 hosts take 2,048.
//
// Iteration order over slots is hash order and must never reach
// output: callers that export records use sorted() (by MAC), and
// find_by_ip-style scans must be order-free reductions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/ipv4_address.hpp"
#include "net/mac_address.hpp"
#include "of/messages.hpp"
#include "sim/time.hpp"

namespace tmg::ctrl {

struct HostRecord {
  net::MacAddress mac;
  net::Ipv4Address ip;
  of::Location loc;
  sim::SimTime first_seen;
  sim::SimTime last_seen;
};

class HostTable {
 public:
  HostTable();

  /// Mutable record for `mac`, or nullptr if never learned.
  [[nodiscard]] HostRecord* find(net::MacAddress mac);
  [[nodiscard]] const HostRecord* find(net::MacAddress mac) const;

  /// Insert a record for `rec.mac`, or rewrite the one already stored.
  /// Returns the stored record. Pointers are invalidated by the next
  /// insert (growth moves records).
  HostRecord& insert(const HostRecord& rec);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Deterministic snapshot: all records sorted by MAC. O(n log n);
  /// for exports and logs, not the packet path.
  [[nodiscard]] std::vector<HostRecord> sorted() const;

  /// Visit every record in slot (hash) order. The order is NOT
  /// deterministic across table histories — callers must only fold
  /// order-free reductions (max/min/count) out of it, never output.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i] != 0) fn(slots_[i]);
    }
  }

  /// Self-consistency audit: probe reachability of every occupied slot,
  /// the load bound and the size count. Returns sorted violation
  /// strings (empty when healthy).
  [[nodiscard]] std::vector<std::string> audit() const;

 private:
  static constexpr std::size_t kInitialSlots = 64;

  /// SplitMix64 finalizer over the 48-bit MAC: the raw value is nearly
  /// sequential for generated fleets, which would cluster probes.
  [[nodiscard]] static std::uint64_t mix(net::MacAddress mac);

  void grow();
  /// The slot holding `mac`, or the empty slot that ends its probe run.
  [[nodiscard]] std::size_t probe(net::MacAddress mac) const;

  std::vector<HostRecord> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
};

}  // namespace tmg::ctrl
