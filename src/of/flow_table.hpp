// Switch flow table: priority-ordered rules with counters and timeouts.
//
// `entries_` (sorted by descending priority, stable for ties) remains
// the source of truth and defines all observable semantics. On top of
// it the fast path maintains:
//
//  * a dst-MAC index: for each concrete match.dst_mac, the ascending
//    list of table positions holding that key, plus one list for
//    wildcard-dst entries. A packet lookup merge-walks its dst bucket
//    and the wildcard bucket in position order — entries keyed to a
//    different dst MAC can never match the packet, so the walk visits
//    exactly the candidates the full linear scan would test, in the
//    same order. MAC keys are interned once into dense bucket numbers
//    (bucket 0 = wildcard) and each table slot carries its bucket
//    number, so the lazy rebuild after a structural change is pure
//    array traffic — position pushes into flat vectors, no hashing.
//
//  * a lazy min-heap of (deadline, entry id) for timeout expiry. Heap
//    deadlines are lower bounds: an idle deadline only moves later as
//    the rule keeps matching, so a popped entry is re-checked against
//    its true deadline and re-pushed if still alive. A sweep that
//    expires nothing costs O(1) instead of O(table).
//
// audit() cross-checks the index and heap against the vector for the
// invariant checker; tests/fastpath_test.cpp fuzzes every operation
// against a linear-scan reference table.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
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

  /// Cheap gate for the override path: any entry pinned to LLDP?
  [[nodiscard]] bool has_lldp_rule() const { return lldp_rules_ > 0; }

  /// Remove and return entries whose idle/hard timeout elapsed at `now`.
  std::vector<ExpiredEntry> expire(sim::SimTime now);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::vector<FlowEntry>& entries() const {
    return entries_;
  }

  void clear();

  /// Coherence audit: index buckets must exactly partition the table in
  /// ascending position order under the correct key, the table must be
  /// priority-sorted, and every live entry with a timeout must be
  /// covered by a heap entry at or before its true deadline (the
  /// properties that make indexed lookup == linear scan and heap expiry
  /// == linear expiry). Returns a sorted list of violations.
  [[nodiscard]] std::vector<std::string> audit() const;

 private:
  struct HeapItem {
    sim::SimTime at;
    std::uint64_t id;
  };
  // Min-heap comparator (std::push_heap builds a max-heap, so invert).
  struct HeapLater {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    }
  };

  /// Earliest time at which the entry can expire, given its current
  /// counters; nullopt if it has no timeouts.
  [[nodiscard]] static std::optional<sim::SimTime> deadline_of(
      const FlowEntry& e);

  void ensure_index() const;
  void push_deadline(const FlowEntry& e, std::uint64_t id);
  /// Position of a live id, or npos. O(n), used on the rare expiry path.
  [[nodiscard]] std::size_t pos_of(std::uint64_t id) const;
  /// Dense bucket number for a match's dst key, interning new MACs
  /// (insert path only; lookups use bucket_of_.find and never intern).
  [[nodiscard]] std::uint32_t intern_bucket(const FlowMatch& match);

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  static constexpr std::uint32_t kWildcardBucket = 0;

  // Kept sorted by descending priority (stable for equal priorities).
  std::vector<FlowEntry> entries_;
  // Live entries with match.ethertype == LLDP (override-path gate).
  std::size_t lldp_rules_ = 0;
  // Stable id per table slot, parallel to entries_ (heap references ids,
  // not positions, because positions shift on erase).
  std::vector<std::uint64_t> ids_;
  std::uint64_t next_id_ = 1;
  // Lazy min-heap on (at, id); may hold stale ids and outdated (always
  // too-early) deadlines, resolved when popped.
  std::vector<HeapItem> expiry_heap_;
  // Grow-only interning of concrete dst MACs into bucket numbers >= 1
  // (kWildcardBucket holds the entries with no dst constraint).
  std::unordered_map<net::MacAddress, std::uint32_t> bucket_of_;
  // Parallel to entries_: each slot's bucket number.
  std::vector<std::uint32_t> bucket_no_;
  // Bucket number -> ascending positions. Rebuilt on demand after
  // structural mutations, without touching bucket_of_.
  mutable std::vector<std::vector<std::uint32_t>> buckets_;
  mutable bool index_dirty_ = true;
};

}  // namespace tmg::of
