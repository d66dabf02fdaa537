// Defense module interface.
//
// Defenses (TopoGuard, SPHINX, TOPOGUARD+) observe controller events and
// may veto state changes. Mirroring Floodlight's module pipeline,
// every hook runs *before* the corresponding state change is committed;
// a Block verdict suppresses the change. Alerts are raised on the
// controller's AlertBus regardless of verdict (paper Sec. IV-B: alerting
// and blocking are independent).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "of/messages.hpp"
#include "sim/time.hpp"
#include "topo/graph.hpp"

namespace tmg::ctrl {

enum class Verdict { Allow, Block };

/// One LLDP propagation observed by link discovery: emitted by the
/// controller at `emitted_at` toward `src`, received back via `dst`.
struct LldpObservation {
  of::Location src;      // (chassis, port) the packet advertises
  of::Location dst;      // (dpid, port) it was received on
  sim::SimTime emitted_at;   // controller-side construction/emission time
  sim::SimTime received_at;  // controller-side receipt time
  /// Estimated switch-link latency: (received - departure timestamp)
  /// minus both control-link one-way delays. Only present when encrypted
  /// timestamps are enabled and decryption succeeded.
  std::optional<sim::Duration> link_latency;
  bool timestamp_present = false;  // TLV present and decryptable
  bool is_new_link = false;        // would create a topology edge
  bool signature_valid = true;     // authenticator check (if enabled)
};

/// A host appearing or moving, as seen by the Host Tracking Service.
struct HostEvent {
  enum class Kind { New, Moved };
  Kind kind = Kind::New;
  net::MacAddress mac;
  net::Ipv4Address ip;
  std::optional<of::Location> old_loc;  // set for Moved
  of::Location new_loc;
  /// Last time the host was seen at old_loc (Moved only). TopoGuard's
  /// migration precondition compares this against Port-Down history.
  sim::SimTime old_last_seen;
};

class DefenseModule {
 public:
  virtual ~DefenseModule() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Every Packet-In, before any service processes it. `switch_index` is
  /// the sending switch's interned index (topo::TopologyGraph), so a
  /// hook can classify the ingress port without hashing the dpid.
  virtual Verdict on_packet_in(const of::PacketIn&,
                               std::uint32_t /*switch_index*/) {
    return Verdict::Allow;
  }

  /// Every Port-Status (Up/Down).
  virtual void on_port_status(const of::PortStatus&) {}

  /// Every completed LLDP propagation (new link or refresh). Block stops
  /// a new link from being added / an existing one from being refreshed.
  virtual Verdict on_lldp_observation(const LldpObservation&) {
    return Verdict::Allow;
  }

  /// A link timed out / was removed from the topology.
  virtual void on_link_removed(const topo::Link&) {}

  /// A host is about to be (re)bound in the Host Tracking Service.
  virtual Verdict on_host_event(const HostEvent&) { return Verdict::Allow; }

  /// The controller pushed a Flow-Mod to a switch (SPHINX trusts these).
  virtual void on_flow_mod(of::Dpid, const of::FlowMod&) {}

  /// Periodic per-switch flow counters (SPHINX cross-checking).
  virtual void on_flow_stats(const of::FlowStatsReply&) {}

  /// Periodic per-switch port counters (SPHINX link-symmetry checks).
  virtual void on_port_stats(const of::PortStatsReply&) {}

  /// Internal-coherence self-check, polled by the invariant checker's
  /// cache audit (e.g. the LLI's incremental order statistics against
  /// their naive recompute). Returns violation descriptions, sorted;
  /// empty when healthy.
  [[nodiscard]] virtual std::vector<std::string> audit() const { return {}; }
};

}  // namespace tmg::ctrl
