#include "ctrl/profiles.hpp"

#include <cctype>
#include <utility>

namespace tmg::ctrl {

using sim::Duration;

namespace {

/// A profile's CLI key: its name, lower-cased.
std::string cli_key(const std::string& name) {
  std::string key = name;
  for (char& ch : key) {
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
  return key;
}

}  // namespace

// Each profile is built by explicit member assignment (not aggregate
// init) so each profile's non-default settings read as data.

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
  std::vector<std::string> names;
  for (const ControllerProfile& p : all_profiles()) {
    names.push_back(cli_key(p.name));
  }
  return names;
}

std::optional<ControllerProfile> profile_by_name(const std::string& name) {
  for (ControllerProfile& p : all_profiles()) {
    if (cli_key(p.name) == name) return std::move(p);
  }
  return std::nullopt;
}

}  // namespace tmg::ctrl
