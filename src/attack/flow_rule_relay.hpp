// Flow-rule LLDP relay (control-plane link fabrication without hosts).
//
// A compromised application — or any principal with Flow-Mod reach on
// one transit switch — installs a pair of rules explicitly matched on
// the LLDP ethertype that shadow the controller punt and splice the
// discovery frames straight through the switch:
//
//     in_port=<left>,  eth=0x88cc  ->  output(<right>)
//     in_port=<right>, eth=0x88cc  ->  output(<left>)
//
// The controller then receives its own LLDP from the far neighbor's
// port and fabricates a link between the relay switch's two neighbors.
// Unlike the host-based relays (ClassicLinkFabrication, Port Amnesia),
// no HOST-classified port ever sources LLDP, so TopoGuard's port-class
// checks and the LLI's latency bound see nothing abnormal: the frames
// really do traverse only switch hardware, with ordinary switch-hop
// delay. Chen et al. (arXiv:2408.16940) call this class "malicious
// flow-rule" topology poisoning; it is the motivating case for the
// learned anomaly IDS (DESIGN.md §14), which flags the resulting
// never-trained LLDP source on the neighbor ports instead.
#pragma once

#include <cstdint>

#include "of/control_channel.hpp"
#include "of/messages.hpp"

namespace tmg::attack {

class FlowRuleRelay {
 public:
  struct Config {
    /// The relay switch's two inter-switch ports to splice.
    of::PortNo left_port = 11;
    of::PortNo right_port = 10;
    /// Rule priority; anything positive works since benign rules never
    /// pin the LLDP ethertype.
    std::uint16_t priority = 60000;
    /// Marker cookie on the injected rules (forensics / tests).
    std::uint64_t cookie = 0x1e1d'0bad;
  };

  /// `channel` is the relay switch's control channel
  /// (scenario::Testbed::control_channel).
  FlowRuleRelay(of::ControlChannel& channel, Config config);
  explicit FlowRuleRelay(of::ControlChannel& channel)
      : FlowRuleRelay(channel, Config{}) {}

  /// Inject the rule pair. Discovery fabricates the cross-link within
  /// one LLDP period; the relay keeps refreshing it for as long as the
  /// rules stay installed.
  void start();

  /// Remove the rule pair (restores the punt; the fabricated link then
  /// ages out of the topology).
  void stop();

  [[nodiscard]] bool active() const { return active_; }

 private:
  void send(of::FlowMod::Command command, of::PortNo in_port,
            of::PortNo out_port);

  of::ControlChannel& channel_;
  Config config_;
  bool active_ = false;
};

}  // namespace tmg::attack
