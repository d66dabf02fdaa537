// OpenFlow control-plane messages.
//
// A reduced but faithful subset of OpenFlow 1.0/1.3 semantics: the
// messages the paper's attacks and defenses live on (Packet-In,
// Packet-Out, Flow-Mod, Port-Status, Echo, Flow-Removed).
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace tmg::of {

using net::Dpid;
using net::PortNo;

/// Reserved port numbers (mirroring OFPP_*).
inline constexpr PortNo kPortFlood = 0xfffb;
inline constexpr PortNo kPortController = 0xfffd;
inline constexpr PortNo kPortNone = 0xffff;

/// A (switch, port) network location.
struct Location {
  Dpid dpid = 0;
  PortNo port = 0;

  auto operator<=>(const Location&) const = default;
  [[nodiscard]] std::string to_string() const;
};

/// Header-field match. Unset (nullopt) fields are wildcards.
struct FlowMatch {
  std::optional<PortNo> in_port;
  std::optional<net::MacAddress> src_mac;
  std::optional<net::MacAddress> dst_mac;
  std::optional<net::EtherType> ethertype;
  std::optional<net::Ipv4Address> src_ip;
  std::optional<net::Ipv4Address> dst_ip;

  [[nodiscard]] bool matches(const net::Packet& pkt, PortNo in) const;
  [[nodiscard]] std::string to_string() const;
  bool operator==(const FlowMatch&) const = default;
};

/// Forwarding action for a matched flow.
struct FlowAction {
  enum class Kind { Output, Flood, Drop, ToController } kind = Kind::Drop;
  PortNo out_port = 0;  // meaningful for Kind::Output

  static FlowAction output(PortNo p) { return {Kind::Output, p}; }
  static FlowAction flood() { return {Kind::Flood, 0}; }
  static FlowAction drop() { return {Kind::Drop, 0}; }
  static FlowAction to_controller() { return {Kind::ToController, 0}; }
  bool operator==(const FlowAction&) const = default;
};

// ---- Switch -> Controller ----

/// The packet is the one the link delivered, shared and immutable: the
/// switch hands its pointer on instead of copying the frame, which keeps
/// the message small enough to ride inline in its delivery event.
struct PacketIn {
  Dpid dpid = 0;
  PortNo in_port = 0;
  enum class Reason { TableMiss, Action } reason = Reason::TableMiss;
  net::PacketPtr packet;
};

struct PortStatus {
  Dpid dpid = 0;
  PortNo port = 0;
  enum class Reason { Up, Down } reason = Reason::Down;
};

struct EchoReply {
  Dpid dpid = 0;
  std::uint64_t token = 0;
};

struct FlowRemoved {
  Dpid dpid = 0;
  std::uint64_t cookie = 0;
  enum class Reason { IdleTimeout, HardTimeout, Delete } reason =
      Reason::IdleTimeout;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
};

/// Per-flow counters, as returned by a stats request (used by SPHINX to
/// cross-check flow volumes along a path).
struct FlowStatsEntry {
  std::uint64_t cookie = 0;
  FlowMatch match;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
};

struct FlowStatsReply {
  Dpid dpid = 0;
  std::uint32_t xid = 0;
  std::vector<FlowStatsEntry> entries;
};

/// Per-port counters (used by SPHINX's link-symmetry sanity invariant:
/// bytes transmitted into a link must reappear at the far end).
struct PortStatsEntry {
  PortNo port = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_bytes = 0;
};

struct PortStatsReply {
  Dpid dpid = 0;
  std::uint32_t xid = 0;
  std::vector<PortStatsEntry> entries;
};

using SwitchToCtrl = std::variant<PacketIn, PortStatus, EchoReply,
                                  FlowRemoved, FlowStatsReply,
                                  PortStatsReply>;

// ---- Controller -> Switch ----

/// The packet is shared and immutable. A controller re-emitting a
/// Packet-In passes that message's own pointer, and the switch forwards,
/// floods or bounces this very object.
struct PacketOut {
  PortNo out_port = kPortFlood;  // kPortFlood, kPortController, or a port
  /// For flood actions: the port the packet originally arrived on
  /// (excluded from the flood). kPortNone floods every port.
  PortNo in_port = kPortNone;
  net::PacketPtr packet;
};

struct FlowMod {
  enum class Command { Add, DeleteMatching } command = Command::Add;
  std::uint64_t cookie = 0;
  FlowMatch match;
  FlowAction action;
  std::uint16_t priority = 100;
  sim::Duration idle_timeout = sim::Duration::zero();  // zero = none
  sim::Duration hard_timeout = sim::Duration::zero();  // zero = none
  bool notify_on_removal = true;
};

struct EchoRequest {
  std::uint64_t token = 0;
};

struct FlowStatsRequest {
  std::uint32_t xid = 0;
};

struct PortStatsRequest {
  std::uint32_t xid = 0;
};

using CtrlToSwitch = std::variant<PacketOut, FlowMod, EchoRequest,
                                  FlowStatsRequest, PortStatsRequest>;

}  // namespace tmg::of

template <>
struct std::hash<tmg::of::Location> {
  std::size_t operator()(const tmg::of::Location& l) const noexcept {
    return std::hash<std::uint64_t>{}((l.dpid << 16) ^ l.port);
  }
};
