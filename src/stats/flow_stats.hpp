// Streaming Packet-In traffic totals (DESIGN.md §10a).
//
// Every Packet-In the controller dispatches while observability is
// attached adds to the byte total, the Welford running moments of the
// packet size, and the sets of switches and (switch, port) pairs seen.
// Memory grows with the distinct switches and ports, never with the
// packets. The controller mirrors the totals into the five flow.*
// gauges at export time; nothing else reads them.
//
// The stats layer sits below the protocol layers, so switches and ports
// arrive as caller-packed opaque u64s (the controller packs
// (dpid << 16) | port — see port_key).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>

#include "stats/descriptive.hpp"

namespace tmg::stats {

class FlowStats {
 public:
  using Key = std::uint64_t;

  /// Key for a (switch, port), mirroring std::hash<of::Location>'s
  /// packing. The stats layer never sees the protocol types themselves.
  [[nodiscard]] static constexpr Key port_key(std::uint64_t dpid,
                                              std::uint16_t port) {
    return (dpid << 16) | port;
  }

  /// Account one packet of `bytes` bytes seen at `port_key` of
  /// `switch_key`.
  void record(Key switch_key, Key port_key, std::uint64_t bytes) {
    sizes_.add(static_cast<double>(bytes));
    bytes_ += bytes;
    switches_.insert(switch_key);
    ports_.insert(port_key);
  }

  [[nodiscard]] std::uint64_t packets() const { return sizes_.count(); }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] double mean_packet_bytes() const { return sizes_.mean(); }
  /// Distinct switches / (switch, port) pairs seen.
  [[nodiscard]] std::size_t switch_cells() const { return switches_.size(); }
  [[nodiscard]] std::size_t port_cells() const { return ports_.size(); }

  void reset() { *this = FlowStats{}; }

 private:
  RunningStats sizes_;
  std::uint64_t bytes_ = 0;
  std::unordered_set<Key> switches_;
  std::unordered_set<Key> ports_;
};

}  // namespace tmg::stats
