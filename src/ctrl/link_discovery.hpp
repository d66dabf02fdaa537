// Link Discovery Service (Floodlight LinkManager analogue).
//
// Three-phase discovery exactly as the paper describes (Sec. III-A.1):
// (1) the controller emits crafted LLDP via Packet-Out to every switch
// port, (2) the switch transmits it on that port, (3) whichever switch
// receives it punts it back via Packet-In, and the controller infers a
// link between the advertised and receiving (switch, port) pairs.
//
// With `authenticate_lldp` the packets carry a truncated HMAC; with
// `lldp_timestamps` they carry an XTEA-sealed departure time used by the
// TOPOGUARD+ LLI to estimate per-link latency.
//
// The HMAC covers only the chassis, port and TTL TLVs, and the key is
// fixed for the controller's lifetime, so a port's tag is the same every
// round. The service MACs each core it emits once and keeps the tag: it
// signs every later probe for that core with it, and checks every
// received copy of that core against it. A core it never emitted takes a
// fresh MAC and is not kept, so received traffic cannot grow the memo.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "ctrl/message_pipeline.hpp"
#include "net/lldp.hpp"
#include "of/messages.hpp"
#include "sim/time.hpp"
#include "topo/graph.hpp"

namespace tmg::ctrl {

class Controller;

class LinkDiscoveryService final : public MessageListener {
 public:
  explicit LinkDiscoveryService(Controller& ctrl);

  /// Start periodic LLDP rounds and the link-timeout sweep.
  void start();

  // --- MessageListener (registered at kLinkDiscoverySlot) ---
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint32_t subscriptions() const override;
  /// LLDP Packet-Ins are consumed here (Stop); Port-Down status drops
  /// every link with that endpoint and lets the chain continue. With
  /// the profile's probe_on_port_up knob, Port-Up triggers an immediate
  /// LLDP emission on that port (event-triggered discovery).
  Disposition on_message(const PipelineMessage& msg,
                         DispatchContext& ctx) override;

  /// Handle an LLDP Packet-In (called from on_message).
  void handle_lldp_packet_in(const of::PacketIn& pi);

  /// Port went down: drop every link with that endpoint immediately
  /// (Floodlight behavior). The next LLDP round re-verifies real links;
  /// a fabricated link must be re-relayed by the attacker.
  void handle_port_down(of::Location loc);

  /// Construct the LLDP packet for one (switch, port) emission; the
  /// first construction of a core MACs it and memoizes the tag. Public
  /// so the Table II benchmark can measure construction cost directly.
  [[nodiscard]] net::LldpPacket construct_lldp(of::Dpid dpid, of::PortNo port,
                                               std::uint64_t nonce,
                                               sim::SimTime departure);

  /// Emit one full LLDP round immediately (also runs periodically).
  void emit_round();

  /// Emit a single LLDP probe on one (switch, port) — the unit of work
  /// emit_round loops over, also fired directly on Port-Up when the
  /// profile enables probe_on_port_up.
  void emit_port(of::Dpid dpid, of::PortNo port);

  struct LinkState {
    topo::Link link;
    sim::SimTime discovered_at;
    sim::SimTime last_verified;
  };
  [[nodiscard]] std::vector<LinkState> link_states() const;
  [[nodiscard]] std::uint64_t emissions() const { return emissions_; }
  [[nodiscard]] std::uint64_t receptions() const { return receptions_; }

  /// Probe conservation ledger. Every emitted LLDP probe must end up in
  /// exactly one bucket (matched / expired / still outstanding), and
  /// every reception in exactly one of the reception buckets — the
  /// invariant checker (src/check) asserts both sums hold.
  struct LldpAccounting {
    std::uint64_t emitted = 0;
    std::uint64_t matched = 0;      // emissions answered at least once
    std::uint64_t expired = 0;      // superseded before any reception
    std::uint64_t duplicate = 0;    // repeat receptions of a matched probe
    std::uint64_t unsolicited = 0;  // claimed src never emitted (forgery)
    std::uint64_t reflected = 0;    // received on the advertised port
    std::uint64_t invalid_signature = 0;
    std::uint64_t outstanding_unmatched = 0;  // awaiting first reception
  };
  [[nodiscard]] LldpAccounting lldp_accounting() const;

  /// Invariant 7: every memoized authenticator must equal a fresh
  /// HMAC of its core under the controller's key. One line per entry
  /// that differs.
  [[nodiscard]] std::vector<std::string> audit() const;

 private:
  /// Everything the authenticator covers: chassis, port and TTL.
  using Core = std::tuple<of::Dpid, of::PortNo, std::uint16_t>;
  [[nodiscard]] static Core core_of(const net::LldpPacket& lldp);

  struct Emission {
    sim::SimTime sent_at;
    bool matched = false;  // at least one reception referenced it
    /// Open "lldp/rtt" span covering emission -> first reception (closed
    /// as "expired" when a fresh probe supersedes an unanswered one).
    obs::SpanId span = 0;
  };

  void sweep();
  [[nodiscard]] std::optional<sim::Duration> estimate_link_latency(
      const net::LldpPacket& lldp, of::Dpid src_dpid, of::Dpid dst_dpid,
      sim::SimTime received_at) const;

  Controller& ctrl_;
  std::map<of::Location, Emission> outstanding_;  // last emission per port
  std::map<topo::Link, LinkState> links_;
  /// Tag of every core this controller emitted (authenticate_lldp only).
  std::map<Core, net::LldpPacket::Authenticator> macs_;
  std::uint64_t next_nonce_ = 1;
  std::uint64_t emissions_ = 0;
  std::uint64_t receptions_ = 0;
  std::uint64_t matched_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t duplicate_ = 0;
  std::uint64_t unsolicited_ = 0;
  std::uint64_t reflected_ = 0;
  std::uint64_t invalid_signature_ = 0;
};

}  // namespace tmg::ctrl
