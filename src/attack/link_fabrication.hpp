// Classic link fabrication (paper Sec. III-A.1) — the pre-Port-Amnesia
// baseline attack.
//
// Two colluding hosts relay LLDP over a side channel *without* resetting
// their behavioral profiles. Against a bare controller this fabricates
// the link; against TopoGuard the relayed LLDP arrives from HOST-
// classified ports and is detected (the motivation for Port Amnesia).
#pragma once

#include <cstdint>

#include "attack/host.hpp"
#include "attack/oob_channel.hpp"
#include "sim/event_loop.hpp"

namespace tmg::attack {

class ClassicLinkFabrication {
 public:
  struct Config {
    /// Relay both directions (fabricates the link from either side).
    bool bidirectional = true;
    /// Also bridge transit traffic (MITM) once the link exists.
    bool bridge_transit = true;
  };

  ClassicLinkFabrication(sim::EventLoop& loop, Host& a, Host& b,
                         OutOfBandChannel& oob, Config config);

  /// Convenience constructor with the default configuration.
  ClassicLinkFabrication(sim::EventLoop& loop, Host& a, Host& b,
                         OutOfBandChannel& oob)
      : ClassicLinkFabrication(loop, a, b, oob, Config{}) {}

  void start();

  [[nodiscard]] std::uint64_t lldp_relayed() const { return lldp_relayed_; }
  [[nodiscard]] std::uint64_t transit_bridged() const {
    return transit_bridged_;
  }

 private:
  void arm(Host& self, Host& peer, bool relays);

  sim::EventLoop& loop_;
  Config config_;
  OutOfBandChannel& oob_;
  Host& a_;
  Host& b_;
  std::uint64_t lldp_relayed_ = 0;
  std::uint64_t transit_bridged_ = 0;
  bool started_ = false;
};

}  // namespace tmg::attack
