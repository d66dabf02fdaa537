// Control Message Monitor (TOPOGUARD+, paper Sec. VI-C).
//
// In-band port amnesia must flap the attacker's port *while* the relayed
// LLDP probe is in flight (the flap is what flips the behavioral profile
// between HOST and SWITCH mid-propagation). The CMM logs Port-Up/Down
// events and, when an LLDP propagation completes, retroactively checks
// whether either endpoint's port generated such an event inside the
// [emitted, received] window; if so, it raises an alert and blocks the
// topology update.
#pragma once

#include <deque>

#include "ctrl/controller.hpp"
#include "ctrl/defense_module.hpp"

namespace tmg::defense {

struct CmmConfig {
  /// Block topology updates whose propagation window contained a port
  /// event on an involved port.
  bool block = true;
  /// How much port-event history to retain (events older than this
  /// cannot overlap any live LLDP window).
  sim::Duration history = sim::Duration::seconds(60);
};

class Cmm : public ctrl::DefenseModule {
 public:
  Cmm(ctrl::Controller& ctrl, CmmConfig config = {});

  [[nodiscard]] std::string name() const override { return "CMM"; }

  void on_port_status(const of::PortStatus& ps) override;
  ctrl::Verdict on_lldp_observation(const ctrl::LldpObservation& obs) override;

  [[nodiscard]] std::uint64_t detections() const { return detections_; }

 private:
  struct PortEvent {
    of::Location loc;
    sim::SimTime at;
    of::PortStatus::Reason reason;
  };

  /// Whether port `a` or port `b` logged an event in [from, to].
  [[nodiscard]] bool port_event_in_window(of::Location a, of::Location b,
                                          sim::SimTime from,
                                          sim::SimTime to) const;
  void prune(sim::SimTime now);

  ctrl::Controller& ctrl_;
  CmmConfig config_;
  std::deque<PortEvent> events_;  // in time order
  std::uint64_t detections_ = 0;
};

}  // namespace tmg::defense
