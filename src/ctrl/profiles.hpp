// Per-controller pipeline profiles (paper Table III + Sec. VII).
//
// A ControllerProfile holds what differs between the controller
// families: the discovery/timeout timers from Table III, the dispatch
// discipline (ordered-with-stop, which keeps the verdict gate, vs
// broadcast-observe, which has none), the host-migration policy
// (immediate rebind vs ONOS's probe-before-move), and event-triggered
// port probing (sOFTDP-style). The listener slots themselves are fixed
// (controller.hpp), so swapping profiles swaps the processing model
// while keeping the default Floodlight chain byte-identical.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace tmg::ctrl {

/// How the chain treats listener verdicts (DESIGN.md §13).
enum class DispatchDiscipline {
  /// Floodlight IOFMessageListener model: the chain runs in priority
  /// order and a Stop (or a Block verdict at the verdict gate, which
  /// only this discipline builds) ends dispatch.
  OrderedStop,
  /// OpenDaylight MD-SAL notification model: every subscriber observes
  /// every message; there is no verdict gate, defense verdicts are
  /// advisory (alert-only) and the derived-event dispatch result is
  /// always Allow.
  BroadcastObserve,
};

/// What the host tracker does when a known MAC shows up at a new
/// attachment point (paper Sec. III-A.2 / Sec. VII).
enum class MigrationPolicy {
  /// Floodlight/POX DeviceManager: rebind on first sighting.
  Immediate,
  /// ONOS HostLocationProvider with host move tracking: probe the old
  /// attachment point first; only an unanswered probe commits the move.
  ProbeBeforeMove,
};

struct ControllerProfile {
  std::string name;

  // --- Discovery timers (paper Table III) ---
  /// Period between LLDP emission rounds.
  sim::Duration lldp_interval;
  /// A link is dropped from the topology if not re-verified within this.
  sim::Duration link_timeout;

  DispatchDiscipline discipline = DispatchDiscipline::OrderedStop;
  MigrationPolicy migration = MigrationPolicy::Immediate;

  // --- Discovery strategy ---
  /// Re-probe a port with LLDP as soon as it reports Up, instead of
  /// waiting for the next periodic round (ONOS; sOFTDP-style
  /// event-triggered discovery).
  bool probe_on_port_up = false;
};

/// Floodlight: 15s discovery, 35s timeout, ordered chain with verdict
/// gate, immediate host rebind. This is the repo default; every golden
/// output is pinned against it.
ControllerProfile floodlight_profile();
/// POX: 5s discovery, 10s timeout; same dispatch shape as Floodlight.
ControllerProfile pox_profile();
/// OpenDaylight: 5s discovery, 15s timeout; broadcast-observe dispatch
/// with no verdict gate (defenses alert but never block).
ControllerProfile opendaylight_profile();
/// ONOS: 3s discovery, 10s timeout, probe-before-move host migration,
/// event-triggered port probing.
ControllerProfile onos_profile();

/// All profile rows, Table III order first, then ONOS.
std::vector<ControllerProfile> all_profiles();

/// CLI keys accepted by profile_by_name, in all_profiles() order.
std::vector<std::string> profile_cli_names();

/// Resolve a CLI key ("floodlight", "pox", "opendaylight", "onos") to
/// its profile; nullopt for an unknown key. Matching is exact.
std::optional<ControllerProfile> profile_by_name(const std::string& name);

}  // namespace tmg::ctrl
