// Dataplane packet model.
//
// Frames carry an Ethernet header, an optional IPv4 header, and a typed
// payload. The model is event-level, not byte-level, except for LLDP
// (which is byte-serialized so authentication is real). The IPv4 `ident`
// field is modeled because the TCP idle scan's side channel depends on
// observing a zombie's IP-ID sequence.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "net/ipv4_address.hpp"
#include "net/lldp.hpp"
#include "net/mac_address.hpp"

namespace tmg::net {

enum class EtherType : std::uint16_t {
  Ipv4 = 0x0800,
  Arp = 0x0806,
  Lldp = 0x88cc,
};

enum class IpProto : std::uint8_t {
  Icmp = 1,
  Tcp = 6,
  Udp = 17,
};

struct ArpPayload {
  enum class Op { Request, Reply };
  Op op = Op::Request;
  MacAddress sender_mac;
  Ipv4Address sender_ip;
  MacAddress target_mac;  // zero for requests
  Ipv4Address target_ip;
};

struct IcmpPayload {
  enum class Type { EchoRequest, EchoReply };
  Type type = Type::EchoRequest;
  std::uint16_t ident = 0;
  std::uint16_t seq = 0;
};

struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool rst = false;
  bool fin = false;

  [[nodiscard]] std::string to_string() const;
  bool operator==(const TcpFlags&) const = default;
};

struct TcpPayload {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  TcpFlags flags;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::size_t data_len = 0;  // application bytes carried (0 for bare scans)
};

/// Generic application traffic (HTTP, DNS, ...) abstracted as a label +
/// size; enough to drive Packet-In learning, flow counters and SPHINX.
/// `bytes` optionally carries opaque application data (e.g. a covertly
/// encapsulated LLDP frame during an in-band relay attack).
struct RawPayload {
  std::string label;
  std::size_t size = 0;
  std::vector<std::uint8_t> bytes;
};

struct Ipv4Header {
  Ipv4Address src;
  Ipv4Address dst;
  std::uint16_t ident = 0;  // IP-ID (idle-scan side channel)
  IpProto protocol = IpProto::Icmp;
  std::uint8_t ttl = 64;
};

using Payload = std::variant<std::monostate, ArpPayload, IcmpPayload,
                             TcpPayload, LldpPacket, RawPayload>;

struct Packet {
  std::uint64_t trace_id = 0;  // unique per constructed packet
  MacAddress src_mac;
  MacAddress dst_mac;
  EtherType ethertype = EtherType::Ipv4;
  std::optional<Ipv4Header> ip;
  Payload payload;

  [[nodiscard]] bool is_lldp() const {
    return ethertype == EtherType::Lldp;
  }
  [[nodiscard]] const LldpPacket* lldp() const {
    return std::get_if<LldpPacket>(&payload);
  }
  [[nodiscard]] const ArpPayload* arp() const {
    return std::get_if<ArpPayload>(&payload);
  }
  [[nodiscard]] const IcmpPayload* icmp() const {
    return std::get_if<IcmpPayload>(&payload);
  }
  [[nodiscard]] const TcpPayload* tcp() const {
    return std::get_if<TcpPayload>(&payload);
  }
  [[nodiscard]] const RawPayload* raw() const {
    return std::get_if<RawPayload>(&payload);
  }

  /// Approximate on-wire size, for switch byte counters.
  [[nodiscard]] std::size_t wire_size() const;

  /// One-line rendering for traces and alert details.
  [[nodiscard]] std::string describe() const;
};

/// A packet in flight: one immutable object shared by every event,
/// switch and control message that carries it between its sender and
/// its last receiver. A receiver that needs a changed packet copies it.
using PacketPtr = std::shared_ptr<const Packet>;

/// Monotone trace-id source. Thread-local: each worker thread (and so
/// each trial, which runs entirely on one thread) gets its own stream.
std::uint64_t next_trace_id();

/// Reset this thread's trace-id counter so the next packet gets id
/// `next`. The TrialRunner calls this before every trial, making a
/// trial's trace ids independent of whatever ran earlier on the thread
/// (the `--jobs N` == `--jobs 1` byte-identity contract).
void reset_trace_ids(std::uint64_t next = 1);

// ---- Constructors for the common packet shapes ----

Packet make_arp_request(MacAddress sender_mac, Ipv4Address sender_ip,
                        Ipv4Address target_ip);
Packet make_arp_reply(MacAddress sender_mac, Ipv4Address sender_ip,
                      MacAddress target_mac, Ipv4Address target_ip);
Packet make_icmp_echo(MacAddress src_mac, Ipv4Address src_ip,
                      MacAddress dst_mac, Ipv4Address dst_ip,
                      std::uint16_t ident, std::uint16_t seq,
                      bool reply = false);
Packet make_tcp(MacAddress src_mac, Ipv4Address src_ip, MacAddress dst_mac,
                Ipv4Address dst_ip, std::uint16_t src_port,
                std::uint16_t dst_port, TcpFlags flags,
                std::size_t data_len = 0);
Packet make_lldp_frame(MacAddress src_mac, LldpPacket lldp);
Packet make_raw(MacAddress src_mac, Ipv4Address src_ip, MacAddress dst_mac,
                Ipv4Address dst_ip, std::string label, std::size_t size);

// ---- 802.1x-style authentication frames (EAPOL surrogate) ----

/// Label carried by authentication frames.
const char* auth_frame_label();

/// Build an authentication frame carrying `token` toward the PAE group
/// address (link-local: bridges/controllers consume it, never forward).
Packet make_auth_frame(MacAddress src_mac, Ipv4Address src_ip,
                       std::uint64_t token);

/// Extract the credential token, or nullopt if `pkt` is not a
/// well-formed authentication frame.
std::optional<std::uint64_t> auth_token_of(const Packet& pkt);

}  // namespace tmg::net
