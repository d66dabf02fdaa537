// TopoGuard (Hong et al., NDSS'15), re-implemented from the paper's
// description in Sec. III-B.
//
// Two components:
//  * Behavioral profiler — classifies each switch port as ANY, HOST, or
//    SWITCH based on first-seen traffic; the classification is reset to
//    ANY on Port-Down. (That reset is the lever Port Amnesia pulls.)
//  * Policy enforcer —
//      - Link Fabrication: alert when LLDP arrives from a HOST port or
//        when first-hop traffic originates from a SWITCH port. LLDP
//        authentication itself is enforced by link discovery when the
//        controller's `authenticate_lldp` flag is on.
//      - Host Migration Verification: precondition (a Port-Down preceded
//        the move away from the old location) and postcondition (the
//        host is unreachable at the old location, checked with a
//        controller-originated ping).
#pragma once

#include <map>
#include <optional>

#include "ctrl/controller.hpp"
#include "ctrl/defense_module.hpp"

namespace tmg::defense {

struct TopoGuardConfig {
  /// Block poisoned topology updates (LLDP from HOST ports). TopoGuard
  /// rejects these updates; alerts are raised either way.
  bool block_link_violations = true;
  /// Block host migrations that fail the precondition. The paper
  /// (Sec. IV-B) notes the deployed system only alerts, leaving state
  /// unchanged — which is what enables alert-flood abuse — so the
  /// faithful default is false.
  bool block_host_violations = false;
};

class TopoGuard : public ctrl::DefenseModule {
 public:
  enum class PortType { Any, Host, Switch };

  TopoGuard(ctrl::Controller& ctrl, TopoGuardConfig config = {});

  [[nodiscard]] std::string name() const override { return "TopoGuard"; }

  ctrl::Verdict on_packet_in(const of::PacketIn& pi,
                             std::uint32_t switch_index) override;
  void on_port_status(const of::PortStatus& ps) override;
  ctrl::Verdict on_host_event(const ctrl::HostEvent& ev) override;

  /// Current classification of a port (ANY if never seen).
  [[nodiscard]] PortType port_type(of::Location loc) const;

  /// Time of the most recent Port-Down on `loc` — the only legal way a
  /// HOST/SWITCH profile returns to ANY (the Port Amnesia model). The
  /// invariant checker uses this to validate profile transitions.
  [[nodiscard]] std::optional<sim::SimTime> last_reset(of::Location loc) const;

  /// Number of profile resets caused by Port-Down events — the paper
  /// notes the reset count is observable at the controller (Sec. IV-A)
  /// even though stock TopoGuard raises no alert for it.
  [[nodiscard]] std::uint64_t profile_resets() const { return resets_; }

 private:
  ctrl::Controller& ctrl_;
  TopoGuardConfig config_;
  std::map<of::Location, PortType> types_;
  std::map<of::Location, sim::SimTime> last_port_down_;
  std::uint64_t resets_ = 0;
};

const char* to_string(TopoGuard::PortType t);

}  // namespace tmg::defense
