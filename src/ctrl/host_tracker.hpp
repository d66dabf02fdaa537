// Host Tracking Service (Floodlight DeviceManager analogue).
//
// Learns MAC/IP -> (switch, port) bindings from Packet-In source fields,
// exactly the mechanism Host Location Hijacking corrupts (paper Sec.
// III-A.2): whoever originates traffic with the victim's identifiers
// first, from anywhere, owns the binding.
//
// Bindings live in an open-addressed HostTable (host_table.hpp): a
// steady-state learn allocates nothing, and enumeration is only exposed
// as a MAC-sorted snapshot.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "ctrl/host_table.hpp"
#include "ctrl/message_pipeline.hpp"
#include "net/ipv4_address.hpp"
#include "net/mac_address.hpp"
#include "of/messages.hpp"
#include "sim/time.hpp"

namespace tmg::ctrl {

class Controller;

class HostTrackingService final : public MessageListener {
 public:
  explicit HostTrackingService(Controller& ctrl);

  // --- MessageListener (registered at kHostTrackingSlot) ---
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint32_t subscriptions() const override;
  Disposition on_message(const PipelineMessage& msg,
                         DispatchContext& ctx) override;

  /// Learn from a (non-LLDP) Packet-In sent by the switch interned at
  /// `switch_index`. Ignores multicast sources and packets arriving on
  /// known switch-internal ports.
  void handle_packet_in(const of::PacketIn& pi, std::uint32_t switch_index);

  [[nodiscard]] std::optional<HostRecord> find(net::MacAddress mac) const;
  [[nodiscard]] std::optional<HostRecord> find_by_ip(
      net::Ipv4Address ip) const;

  /// Deterministic snapshot of every binding, sorted by MAC. This is
  /// the only way to enumerate the table: the backing store's physical
  /// order is hash order and must never leak into logs or output.
  [[nodiscard]] std::vector<HostRecord> hosts_sorted() const {
    return hosts_.sorted();
  }
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }

  /// Structural audit of the host table (for the invariant checker).
  [[nodiscard]] std::vector<std::string> audit_table() const {
    return hosts_.audit();
  }

  /// Number of accepted migrations since start (for experiment logs).
  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }
  /// Number of host events suppressed by a defense verdict.
  [[nodiscard]] std::uint64_t blocked_events() const { return blocked_; }
  /// Number of moves rejected because the old attachment point answered
  /// a probe-before-move reachability check (ONOS migration policy).
  [[nodiscard]] std::uint64_t moves_rejected() const {
    return moves_rejected_;
  }
  /// Moves currently awaiting a probe-before-move verdict.
  [[nodiscard]] std::size_t pending_moves() const {
    return pending_moves_.size();
  }

 private:
  /// A sighting at a new location held back while the old attachment
  /// point is probed (MigrationPolicy::ProbeBeforeMove). Further
  /// sightings of the same MAC are ignored until the probe resolves.
  struct PendingMove {
    of::Location old_loc;
    of::Location new_loc;
    net::Ipv4Address ip;
  };

  static net::Ipv4Address source_ip_of(const net::Packet& pkt);
  /// Probe resolution: a reachable old location rejects the move; an
  /// unanswered probe dispatches the Moved event and commits.
  void finish_move(net::MacAddress mac, bool old_loc_reachable);
  /// Dispatch the Moved event through the pipeline and rebind `rec`.
  void commit_move(HostRecord& rec, of::Location new_loc,
                   net::Ipv4Address ip);

  Controller& ctrl_;
  HostTable hosts_;
  // std::map for deterministic iteration/erasure order across trials.
  std::map<net::MacAddress, PendingMove> pending_moves_;
  std::uint64_t migrations_ = 0;
  std::uint64_t blocked_ = 0;
  std::uint64_t moves_rejected_ = 0;
};

}  // namespace tmg::ctrl
