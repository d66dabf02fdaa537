#include "ctrl/profiles.hpp"

namespace tmg::ctrl {

using sim::Duration;

// Each profile is built by explicit member assignment (not aggregate
// init) so the non-default pipeline knobs read as data.

ControllerProfile floodlight_profile() {
  ControllerProfile p;
  p.name = "Floodlight";
  p.lldp_interval = Duration::seconds(15);
  p.link_timeout = Duration::seconds(35);
  return p;
}

ControllerProfile pox_profile() {
  ControllerProfile p;
  p.name = "POX";
  p.lldp_interval = Duration::seconds(5);
  p.link_timeout = Duration::seconds(10);
  return p;
}

ControllerProfile opendaylight_profile() {
  ControllerProfile p;
  p.name = "OpenDaylight";
  p.lldp_interval = Duration::seconds(5);
  p.link_timeout = Duration::seconds(15);
  // MD-SAL notification bus: every subscriber sees every message and
  // defense verdicts never suppress a service commit.
  p.discipline = DispatchDiscipline::BroadcastObserve;
  p.layout.verdict_gate = -1;
  return p;
}

ControllerProfile onos_profile() {
  ControllerProfile p;
  p.name = "ONOS";
  p.lldp_interval = Duration::seconds(3);
  p.link_timeout = Duration::seconds(10);
  // HostLocationProvider verifies the old attachment point before
  // rebinding a host (paper Sec. VII countermeasure discussion).
  p.migration = MigrationPolicy::ProbeBeforeMove;
  p.migration_probe_timeout = Duration::millis(300);
  // Event-triggered discovery: LLDP is re-emitted on a port as soon as
  // it reports Up (sOFTDP-style), not only on the periodic round.
  p.probe_on_port_up = true;
  return p;
}

std::vector<ControllerProfile> all_profiles() {
  return {floodlight_profile(), pox_profile(), opendaylight_profile(),
          onos_profile()};
}

std::vector<std::string> profile_cli_names() {
  return {"floodlight", "pox", "opendaylight", "onos"};
}

std::optional<ControllerProfile> profile_by_name(const std::string& name) {
  if (name == "floodlight") return floodlight_profile();
  if (name == "pox") return pox_profile();
  if (name == "opendaylight") return opendaylight_profile();
  if (name == "onos") return onos_profile();
  return std::nullopt;
}

}  // namespace tmg::ctrl
