#include "defense/topoguard.hpp"

namespace tmg::defense {

using ctrl::Alert;
using ctrl::AlertType;
using ctrl::Verdict;

namespace {
/// How long the postcondition's reachability probe waits for the host
/// to answer at its previous location.
constexpr sim::Duration kPostconditionProbeTimeout = sim::Duration::millis(200);
}  // namespace

const char* to_string(TopoGuard::PortType t) {
  switch (t) {
    case TopoGuard::PortType::Any: return "ANY";
    case TopoGuard::PortType::Host: return "HOST";
    case TopoGuard::PortType::Switch: return "SWITCH";
  }
  return "?";
}

TopoGuard::TopoGuard(ctrl::Controller& ctrl, TopoGuardConfig config)
    : ctrl_{ctrl}, config_{config} {}

TopoGuard::PortType TopoGuard::port_type(of::Location loc) const {
  const auto it = types_.find(loc);
  return it == types_.end() ? PortType::Any : it->second;
}

std::optional<sim::SimTime> TopoGuard::last_reset(of::Location loc) const {
  const auto it = last_port_down_.find(loc);
  if (it == last_port_down_.end()) return std::nullopt;
  return it->second;
}

Verdict TopoGuard::on_packet_in(const of::PacketIn& pi,
                                std::uint32_t switch_index) {
  // Controller-originated frames (reachability pings, active link
  // probes) are not host traffic and never drive classification.
  if (pi.packet->src_mac == ctrl_.mac()) return Verdict::Allow;

  const of::Location loc{pi.dpid, pi.in_port};
  const PortType type = port_type(loc);

  if (pi.packet->is_lldp()) {
    if (type == PortType::Host) {
      ctrl_.alerts().raise(Alert{
          ctrl_.loop().now(), name(), AlertType::LldpFromHostPort,
          "LLDP received from HOST-classified port " + loc.to_string(), loc});
      return config_.block_link_violations ? Verdict::Block : Verdict::Allow;
    }
    types_[loc] = PortType::Switch;
    return Verdict::Allow;
  }

  // Non-LLDP dataplane traffic. Packets punted from topology-internal
  // ports (flooded broadcast/unknown-unicast copies crossing real
  // links) are transit, not first-hop originations: Floodlight's
  // topology module consumes them before the device-learning path
  // TopoGuard hooks. Note this never shields an attacker origination
  // for long — any amnesia flap tears the port's links down
  // (LinkDiscoveryService::handle_port_down), making it an attachment
  // port again.
  if (ctrl_.topology().is_switch_port(switch_index, pi.in_port)) {
    return Verdict::Allow;
  }
  if (type == PortType::Switch) {
    ctrl_.alerts().raise(Alert{
        ctrl_.loop().now(), name(), AlertType::FirstHopFromSwitchPort,
        "first-hop traffic from SWITCH-classified port " + loc.to_string(),
        loc});
    return config_.block_link_violations ? Verdict::Block : Verdict::Allow;
  }
  if (type == PortType::Any) types_[loc] = PortType::Host;
  return Verdict::Allow;
}

void TopoGuard::on_port_status(const of::PortStatus& ps) {
  const of::Location loc{ps.dpid, ps.port};
  if (ps.reason == of::PortStatus::Reason::Down) {
    last_port_down_[loc] = ctrl_.loop().now();
    // The forgetting at the heart of Port Amnesia: topology may be
    // dynamic, so the profile must reset when the port goes down.
    const auto it = types_.find(loc);
    if (it != types_.end() && it->second != PortType::Any) {
      it->second = PortType::Any;
      ++resets_;
    }
  }
}

Verdict TopoGuard::on_host_event(const ctrl::HostEvent& ev) {
  if (ev.kind != ctrl::HostEvent::Kind::Moved || !ev.old_loc) {
    return Verdict::Allow;
  }

  // Precondition: the host must have disconnected from its original
  // location, i.e. a Port-Down was observed there after its last traffic.
  const auto down = last_port_down_.find(*ev.old_loc);
  const bool precondition_ok =
      down != last_port_down_.end() && down->second >= ev.old_last_seen;
  if (!precondition_ok) {
    ctrl_.alerts().raise(Alert{
        ctrl_.loop().now(), name(), AlertType::HostMigrationPrecondition,
        "host " + ev.mac.to_string() + " moved from " +
            ev.old_loc->to_string() + " to " + ev.new_loc.to_string() +
            " without a prior Port-Down",
        ev.new_loc});
    return config_.block_host_violations ? Verdict::Block : Verdict::Allow;
  }

  // Postcondition: the host must be unreachable at its previous
  // location. Checked asynchronously with a controller ping; the move is
  // committed meanwhile (stock TopoGuard behavior — the race the Port
  // Probing attack wins is unaffected by this check).
  const of::Location old_loc = *ev.old_loc;
  const auto mac = ev.mac;
  ctrl_.probe_reachability(
      old_loc, mac, ev.ip, kPostconditionProbeTimeout,
      [this, old_loc, mac](bool reachable) {
        if (!reachable) return;
        ctrl_.alerts().raise(Alert{
            ctrl_.loop().now(), name(), AlertType::HostMigrationPostcondition,
            "host " + mac.to_string() + " still reachable at " +
                old_loc.to_string() + " after migration",
            old_loc});
      });
  return Verdict::Allow;
}

}  // namespace tmg::defense
