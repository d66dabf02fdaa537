// Port Amnesia attack (paper Sec. IV-A, Fig. 1).
//
// Two colluding hosts fabricate an inter-switch link by relaying LLDP,
// using interface flaps (Port-Down => TopoGuard profile reset) to erase
// their HOST classification at the right moments.
//
//  * Out-of-band mode: LLDP and MITM transit ride a secret side channel
//    (OutOfBandChannel). With `preposition_flap` the reset happens
//    *between* LLDP rounds, which evades the CMM; the relay's added
//    latency is what the LLI catches instead.
//  * In-band mode: there is no side channel; the relayed LLDP is
//    covertly encapsulated in ordinary host traffic through the SDN
//    itself. Every origination from a SWITCH-profiled port needs a
//    fresh flap ("context switch", >= the 802.3 link-integrity window),
//    so flaps necessarily land inside LLDP propagation windows — the
//    signature the CMM detects.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "attack/host.hpp"
#include "attack/oob_channel.hpp"
#include "obs/trace_log.hpp"
#include "sim/event_loop.hpp"

namespace tmg::obs {
class Observability;
}  // namespace tmg::obs

namespace tmg::attack {

class PortAmnesiaAttack {
 public:
  enum class Mode { OutOfBand, InBand };

  struct Config {
    Mode mode = Mode::OutOfBand;
    /// Carrier-down hold; must exceed the switch's link-integrity
    /// detection window (16±8 ms) to guarantee a Port-Down.
    sim::Duration flap_hold = sim::Duration::millis(30);
    /// Out-of-band: flap once ahead of the next LLDP round instead of
    /// during the propagation (CMM-evasive variant).
    bool preposition_flap = true;
    /// Relay LLDP in both directions (the paper's attack). One-way
    /// relaying still fabricates the (undirected) link and needs far
    /// fewer context switches — the minimal-flap CMM-evasion variant
    /// analyzed in EXPERIMENTS.md.
    bool bidirectional = true;
    /// Faithfully bridge transit traffic over the fabricated link
    /// (man-in-the-middle). SPHINX counters stay consistent.
    bool bridge_transit = true;
    /// Drop transit instead (blackhole DoS; SPHINX counters diverge).
    bool blackhole_transit = false;
  };

  /// @param oob required for Mode::OutOfBand, ignored for InBand.
  PortAmnesiaAttack(sim::EventLoop& loop, Host& a, Host& b,
                    OutOfBandChannel* oob, Config config);

  /// Arm the hooks (and run the prepositioning flap, if configured).
  void start();

  [[nodiscard]] std::uint64_t lldp_relayed() const { return lldp_relayed_; }

  /// Per-relay latency: LLDP captured at one endpoint -> re-emitted at
  /// the other. The paper's Sec. V-A analysis: the out-of-band channel
  /// costs its propagation+codec delay; the in-band channel additionally
  /// pays a >=16 ms context-switch flap whenever the emitting port is
  /// HOST-profiled.
  [[nodiscard]] const std::vector<sim::Duration>& relay_latencies() const {
    return relay_latencies_;
  }
  [[nodiscard]] std::uint64_t transit_bridged() const {
    return transit_bridged_;
  }
  [[nodiscard]] std::uint64_t transit_dropped() const {
    return transit_dropped_;
  }
  [[nodiscard]] std::uint64_t flaps() const { return flaps_; }
  [[nodiscard]] std::uint64_t covert_sends() const { return covert_sends_; }

  /// Attach observability (borrowed; nullptr detaches). Emits
  /// "attack/flap" spans (carrier down -> settled, the profile-amnesia
  /// window) and "attack/relay" spans (LLDP captured -> re-emitted at
  /// the peer, the latency the LLI measures from the other side); relay
  /// and flap totals mirror in at export time via a collector.
  void set_observability(obs::Observability* obs);

 private:
  /// Attacker-side estimate of a port's TopoGuard profile.
  enum class Profile { Any, Host, Switch };

  struct Endpoint {
    Host* host = nullptr;
    Endpoint* peer = nullptr;
    Profile profile = Profile::Host;  // attackers joined as normal hosts
    bool flap_in_progress = false;
    /// Actions queued behind an in-progress profile-reset flap.
    std::deque<std::function<void()>> after_flap;
  };

  void arm(Endpoint& self);
  bool capture(Endpoint& self, const net::Packet& pkt);
  void relay_lldp_oob(Endpoint& from, const net::Packet& pkt);
  void relay_lldp_inband(Endpoint& from, const net::Packet& pkt);
  void bridge_oob(Endpoint& from, const net::Packet& pkt);
  void bridge_inband(Endpoint& from, const net::Packet& pkt);
  /// Emit a host-originated frame from `ep`'s port, context-switching
  /// (flap) first if the port is currently SWITCH-profiled.
  void originate_as_host(Endpoint& ep, net::Packet pkt);
  /// Emit an LLDP frame from `ep`'s port, context-switching first if
  /// the port is currently HOST-profiled. `captured_at` (if valid)
  /// stamps the relay-latency log on emission.
  void emit_lldp(Endpoint& ep, net::Packet pkt,
                 std::optional<sim::SimTime> captured_at = std::nullopt);
  void flap_then(Endpoint& ep, std::function<void()> after);

  sim::EventLoop& loop_;
  Config config_;
  OutOfBandChannel* oob_;
  Endpoint a_;
  Endpoint b_;
  /// In-band covert "encapsulation": payload store keyed by the 8-byte
  /// token carried in the covert frame (event-level stand-in for byte
  /// serialization of arbitrary packets).
  std::map<std::uint64_t, net::Packet> covert_store_;
  std::uint64_t next_covert_key_ = 1;
  std::uint64_t lldp_relayed_ = 0;
  std::uint64_t transit_bridged_ = 0;
  std::uint64_t transit_dropped_ = 0;
  std::uint64_t flaps_ = 0;
  std::uint64_t covert_sends_ = 0;
  std::vector<sim::Duration> relay_latencies_;
  obs::Observability* obs_ = nullptr;
  bool started_ = false;
};

}  // namespace tmg::attack
