// SDN controller core.
//
// The controller hosts the MessagePipeline (DESIGN.md §9) — an
// ordered, observable chain of MessageListeners through which every
// switch-originated message and every controller-derived event flows —
// and owns the Floodlight-style services the paper's attacks target
// (link discovery, host tracking, reactive routing) and the installed
// defense modules; peers reach them through its typed accessors. The
// controller also tracks per-switch control-link RTT (average of the
// latest three echo exchanges), which TOPOGUARD+'s LLI subtracts from
// LLDP propagation time (paper Sec. VI-D).
//
// Switch connections live in a vector indexed by the switch index the
// topology interns at connect_switch (DESIGN.md §8f): a Packet-Out or
// Flow-Mod resolves its dpid with one hash and one load, with no tree
// walk. A sorted dpid list drives every walk over the switches
// (LLDP rounds, echo probes, routing's Flow-Mod order), in ascending
// dpid order.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/xtea.hpp"
#include "ctrl/alert_bus.hpp"
#include "ctrl/defense_module.hpp"
#include "ctrl/message_pipeline.hpp"
#include "ctrl/profiles.hpp"
#include "of/control_channel.hpp"
#include "of/messages.hpp"
#include "sim/event_loop.hpp"
#include "sim/rng.hpp"
#include "topo/graph.hpp"

namespace tmg::ctrl {

class LinkDiscoveryService;
class HostTrackingService;
class RoutingService;

// The fixed priority bands of the listener chain (DESIGN.md §9a): lower
// runs first. The constructor assembles the chain from these, and
// invariant 8 (check/invariants) checks the live chain against them.
inline constexpr int kCoreSlot = 0;
/// Defense module N installs at kDefenseBase + N * kDefenseStep,
/// preserving installation order.
inline constexpr int kDefenseBase = 100;
inline constexpr int kDefenseStep = 10;
/// Trace-profile anomaly IDS: after the defense band and before the
/// verdict gate, so it scores every pre-commit event the defenses see,
/// including one a defense's Block is about to stop.
inline constexpr int kAnomalyIdsSlot = 800;
/// Built only under DispatchDiscipline::OrderedStop.
inline constexpr int kVerdictGateSlot = 900;
inline constexpr int kLinkDiscoverySlot = 1000;
inline constexpr int kHostTrackingSlot = 1100;
inline constexpr int kRoutingSlot = 1200;

/// Subscription mask handed to every installed defense adapter:
/// everything except EchoReply/FlowRemoved, which the core consumes.
inline constexpr std::uint32_t kDefenseSubscriptions =
    MessageType::PacketIn | MessageType::PortStatus | MessageType::FlowStats |
    MessageType::PortStats | MessageType::LldpObservation |
    MessageType::HostEvent | MessageType::LinkRemoved |
    MessageType::FlowModOut;

/// Control-plane events, recorded as "ctrl/<KIND>" trace instants by
/// Controller::trace_event. The to_string spellings are part of the
/// trace schema (DESIGN.md §10b): exported traces and their readers
/// name events by them.
enum class EventKind {
  PacketIn,
  PacketOut,
  FlowMod,
  PortUp,
  PortDown,
  LinkAdded,
  LinkRemoved,
  HostNew,
  HostMoved,
  HostMoveRejected,
  HostBlocked,
  Alert,
  EchoRtt,
};

const char* to_string(EventKind kind);

struct ControllerConfig {
  ControllerProfile profile = floodlight_profile();
  /// TopoGuard: HMAC-sign LLDP packets and reject invalid signatures.
  bool authenticate_lldp = false;
  /// TOPOGUARD+: embed an encrypted departure timestamp in LLDP.
  bool lldp_timestamps = false;
};

class Controller {
 public:
  /// Validates `config`: the profile's lldp_interval and link_timeout
  /// must be positive — a non-positive one is a TMG_ASSERT failure.
  Controller(sim::EventLoop& loop, sim::Rng rng, ControllerConfig config);
  ~Controller();
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Register a switch reachable over `channel`. `ports` lists the
  /// switch's dataplane ports (LLDP is emitted to each). Interns the
  /// dpid in topology(); every message from the switch carries that
  /// index as PipelineMessage::switch_index.
  void connect_switch(of::Dpid dpid, of::ControlChannel& channel,
                      std::vector<of::PortNo> ports);

  /// Begin periodic work: LLDP rounds, echo probes, link sweeps.
  void start();

  /// Install a defense module: wraps it in a pipeline listener at the
  /// next defense priority slot (so modules run in installation order,
  /// between the controller core and the verdict gate).
  DefenseModule& add_defense(std::unique_ptr<DefenseModule> module);

  // --- State accessors ---
  [[nodiscard]] AlertBus& alerts() { return alerts_; }
  [[nodiscard]] const AlertBus& alerts() const { return alerts_; }
  [[nodiscard]] topo::TopologyGraph& topology() { return topology_; }
  [[nodiscard]] const topo::TopologyGraph& topology() const {
    return topology_;
  }
  [[nodiscard]] LinkDiscoveryService& link_discovery() { return *links_; }
  [[nodiscard]] HostTrackingService& host_tracker() { return *hosts_; }
  [[nodiscard]] RoutingService& routing() { return *routing_; }
  [[nodiscard]] const std::vector<std::unique_ptr<DefenseModule>>&
  defense_modules() const {
    return modules_;
  }

  /// Attach the trace-profile anomaly detector (borrowed; nullptr
  /// detaches, the default). The "anomaly-ids" chain slot
  /// (kAnomalyIdsSlot) is always registered; without a detector it
  /// forwards nothing, so an undetected run is bit-identical to the
  /// pre-IDS controller. Unlike add_defense the detector sits *after*
  /// the defense band — it scores the same pre-commit stream but never
  /// shadows a hand-written defense's verdict.
  void set_anomaly_detector(DefenseModule* detector) { anomaly_ = detector; }
  [[nodiscard]] DefenseModule* anomaly_detector() const { return anomaly_; }
  [[nodiscard]] sim::EventLoop& loop() { return loop_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }
  [[nodiscard]] const ControllerConfig& config() const { return config_; }
  /// Connected switches, ascending.
  [[nodiscard]] const std::vector<of::Dpid>& switch_dpids() const {
    return dpids_;
  }
  /// Dataplane ports of a connected switch (std::out_of_range otherwise).
  [[nodiscard]] const std::vector<of::PortNo>& switch_ports(
      of::Dpid dpid) const;

  // --- Pipeline ---
  [[nodiscard]] MessagePipeline& pipeline() { return pipeline_; }
  [[nodiscard]] const MessagePipeline& pipeline() const { return pipeline_; }

  /// Average of the latest three control-link RTTs; nullopt until the
  /// first echo completes.
  [[nodiscard]] std::optional<sim::Duration> control_rtt(of::Dpid dpid) const;

  // --- Controller identity (used for reachability probes) ---
  [[nodiscard]] net::MacAddress mac() const;
  [[nodiscard]] net::Ipv4Address ip() const;
  [[nodiscard]] const crypto::Key& lldp_key() const { return lldp_key_; }
  [[nodiscard]] const crypto::XteaKey& ts_key() const { return ts_key_; }

  // --- Transport (services and defenses send through these) ---
  // Each is a silent no-op for a dpid with no connected switch, whether
  // unknown or interned only through a topology link.
  /// Packet-Out of a packet already in flight, such as a Packet-In's own
  /// pointer: the switch receives this very object, not a copy.
  void send_packet_out(of::Dpid dpid, of::PortNo out_port, net::PacketPtr pkt,
                       of::PortNo in_port = of::kPortNone);
  /// Packet-Out of a packet the controller builds itself (ARP replies,
  /// probes, LLDP): wrapped once, then shared like any other.
  void send_packet_out(of::Dpid dpid, of::PortNo out_port, net::Packet pkt,
                       of::PortNo in_port = of::kPortNone);
  void send_flow_mod(of::Dpid dpid, of::FlowMod fm);
  void request_flow_stats(of::Dpid dpid);
  void request_port_stats(of::Dpid dpid);

  /// Send an ICMP echo out (dpid, port) and report whether a reply came
  /// back within `timeout`. Probe replies are consumed by the
  /// controller-core listener before defenses or services see them
  /// (they are controller-internal traffic).
  void probe_reachability(of::Location loc, net::MacAddress dst_mac,
                          net::Ipv4Address dst_ip, sim::Duration timeout,
                          std::function<void(bool reachable)> done);

  // --- Tracing ---

  /// Attach the observability layer (borrowed; nullptr detaches, the
  /// default). Wires the pipeline's dispatch span tree, mirrors raised
  /// alerts into the trace, registers the export-time collector that
  /// mirrors pipeline/LLDP/alert totals into the metrics registry, and
  /// starts the control-link echo RTT histogram. With a null pointer
  /// every simulated behavior is bit-identical to an unobserved
  /// controller.
  void set_observability(obs::Observability* obs);
  [[nodiscard]] obs::Observability* observability() const { return obs_; }

  /// Record a "ctrl/<KIND>" instant (plus a "loc" arg) in the attached
  /// observability trace; a no-op without one. Used by the services.
  void trace_event(EventKind kind, std::string detail,
                   std::optional<of::Location> loc = std::nullopt);

  // --- Derived-event publication (services dispatch through the
  // pipeline; the returned verdict is the accumulated defense verdict)
  Verdict notify_host_event(const HostEvent& ev);
  Verdict notify_lldp_observation(const LldpObservation& obs);
  void notify_link_removed(const topo::Link& link);

 private:
  struct SwitchConn {
    of::ControlChannel* channel = nullptr;  // nullptr: never connected
    std::vector<of::PortNo> ports;
    // Latest 3, oldest first. A vector, not a deque: a default deque
    // allocates, and its move may throw, so conns_ would copy every
    // connection each time it grows.
    std::vector<sim::Duration> recent_rtts;
    std::map<std::uint64_t, sim::SimTime> pending_echo;  // token -> sent
  };
  struct PendingProbe {
    std::function<void(bool)> done;
    sim::TimerHandle timeout;
    obs::SpanId span = 0;  // open "ctrl/probe.reachability" span
  };
  class CoreListener;
  class VerdictGate;

  /// The connection of `dpid`; nullptr if no switch connected as it.
  [[nodiscard]] SwitchConn* conn(of::Dpid dpid);
  [[nodiscard]] const SwitchConn* conn(of::Dpid dpid) const;
  void dispatch(of::Dpid dpid, std::uint32_t index,
                const of::SwitchToCtrl& msg);
  void finish_probe_span(obs::SpanId span, bool reachable);
  void handle_echo_reply(of::Dpid dpid, const of::EchoReply& er);
  void echo_tick();
  /// True if the packet-in was a reply to a controller probe (consumed).
  bool consume_probe_reply(const of::PacketIn& pi);

  sim::EventLoop& loop_;
  sim::Rng rng_;
  ControllerConfig config_;
  AlertBus alerts_;
  topo::TopologyGraph topology_;
  MessagePipeline pipeline_;
  // Connections by interned switch index; an index the topology interned
  // for a dpid that never connected has a null channel.
  std::vector<SwitchConn> conns_;
  std::vector<of::Dpid> dpids_;  // connected dpids, ascending
  std::vector<std::unique_ptr<DefenseModule>> modules_;
  std::unique_ptr<LinkDiscoveryService> links_;
  std::unique_ptr<HostTrackingService> hosts_;
  std::unique_ptr<RoutingService> routing_;
  const crypto::Key lldp_key_;
  crypto::XteaKey ts_key_;
  std::uint64_t next_echo_token_ = 1;
  std::uint16_t next_probe_ident_ = 1;
  // Stats-request xids are per-controller (a function-local static here
  // would leak state across trials and break parallel-trial determinism).
  std::uint32_t next_flow_stats_xid_ = 1;
  std::uint32_t next_port_stats_xid_ = 1;
  std::map<std::uint16_t, PendingProbe> pending_probes_;
  DefenseModule* anomaly_ = nullptr;
  obs::Observability* obs_ = nullptr;
  stats::Histogram* obs_echo_rtt_ = nullptr;  // "ctrl.echo_rtt_ms"
  bool alert_mirror_subscribed_ = false;
  bool started_ = false;
};

}  // namespace tmg::ctrl
