// Message pipeline (Floodlight IOFMessageListener chain analogue).
//
// Every consumer of switch-originated OpenFlow messages — link
// discovery, host tracking, routing, each defense module, the
// controller core itself — registers as a MessageListener with a
// declared subscription mask and an explicit priority. Dispatch walks
// the chain in ascending (priority, name) order; a listener may return
// Disposition::Stop to consume the message (Floodlight's
// Command.STOP). The chain order is a pure function of the registered
// (priority, name) pairs, never of registration order, so a shuffled
// setup resolves to the same byte-identical run (DESIGN.md §9 has the
// priority table).
//
// The pipeline also carries the controller-derived events the services
// publish mid-dispatch (LLDP observations, host events, link removals,
// outgoing flow-mods), so defenses subscribe to those exactly like raw
// OpenFlow messages. Defense verdicts accumulate in the
// DispatchContext: every defense sees every event (paper Sec. IV-B —
// alerting and blocking are independent), and the publisher reads the
// final verdict after the dispatch returns.
//
// Observability: per-listener dispatch/stop counters, always on. The
// pipeline never reads a host clock; perfbench's paired defense on/off
// runs attribute listener cost from outside src/.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/defense_module.hpp"
#include "obs/trace_log.hpp"
#include "of/messages.hpp"
#include "sim/event_loop.hpp"
#include "topo/graph.hpp"

namespace tmg::obs {
class Observability;
class Counter;
}  // namespace tmg::obs

namespace tmg::stats {
class Histogram;
}  // namespace tmg::stats

namespace tmg::ctrl {

/// Message classes a listener can subscribe to (bitmask values).
enum class MessageType : std::uint32_t {
  PacketIn = 1u << 0,
  PortStatus = 1u << 1,
  EchoReply = 1u << 2,
  FlowRemoved = 1u << 3,
  FlowStats = 1u << 4,
  PortStats = 1u << 5,
  // Controller-derived events, published by the services.
  LldpObservation = 1u << 6,
  HostEvent = 1u << 7,
  LinkRemoved = 1u << 8,
  FlowModOut = 1u << 9,
};

[[nodiscard]] constexpr std::uint32_t mask_of(MessageType t) {
  return static_cast<std::uint32_t>(t);
}
[[nodiscard]] constexpr std::uint32_t operator|(MessageType a, MessageType b) {
  return mask_of(a) | mask_of(b);
}
[[nodiscard]] constexpr std::uint32_t operator|(std::uint32_t a,
                                                MessageType b) {
  return a | mask_of(b);
}
[[nodiscard]] const char* to_string(MessageType t);

/// One message traversing the chain. Exactly one payload pointer is
/// non-null, matching `type`; payloads are borrowed for the duration of
/// the dispatch only.
struct PipelineMessage {
  MessageType type = MessageType::PacketIn;
  of::Dpid dpid = 0;  // originating switch (FlowModOut: target switch)
  /// The originating switch's index in the controller's topology graph
  /// (TopologyGraph::switch_index); topo::kNoSwitch on controller-derived
  /// events. It rides here, not on of::PacketIn, because the switch that
  /// builds a Packet-In does not know the controller's index.
  std::uint32_t switch_index = topo::kNoSwitch;
  const of::PacketIn* packet_in = nullptr;
  const of::PortStatus* port_status = nullptr;
  const of::EchoReply* echo_reply = nullptr;
  const of::FlowRemoved* flow_removed = nullptr;
  const of::FlowStatsReply* flow_stats = nullptr;
  const of::PortStatsReply* port_stats = nullptr;
  const LldpObservation* lldp_observation = nullptr;
  const HostEvent* host_event = nullptr;
  const topo::Link* link_removed = nullptr;
  const of::FlowMod* flow_mod = nullptr;

  // Switch-originated messages carry the switch's interned index.
  static PipelineMessage from(std::uint32_t switch_index,
                              const of::PacketIn& pi);
  static PipelineMessage from(of::Dpid dpid, std::uint32_t switch_index,
                              const of::PortStatus& ps);
  static PipelineMessage from(of::Dpid dpid, std::uint32_t switch_index,
                              const of::EchoReply& er);
  static PipelineMessage from(of::Dpid dpid, std::uint32_t switch_index,
                              const of::FlowRemoved& fr);
  static PipelineMessage from(of::Dpid dpid, std::uint32_t switch_index,
                              const of::FlowStatsReply& fsr);
  static PipelineMessage from(of::Dpid dpid, std::uint32_t switch_index,
                              const of::PortStatsReply& psr);
  static PipelineMessage from(const LldpObservation& obs);
  static PipelineMessage from(const HostEvent& ev);
  static PipelineMessage from(const topo::Link& link);
  static PipelineMessage from(of::Dpid dpid, const of::FlowMod& fm);
};

enum class Disposition { Continue, Stop };

/// Mutable per-dispatch state shared down the chain.
struct DispatchContext {
  /// Accumulated defense verdict; Block never short-circuits sibling
  /// defenses, only the publisher's state commit.
  Verdict verdict = Verdict::Allow;
  /// Listeners the message was delivered to.
  std::size_t visited = 0;
  /// Name of the listener that stopped the chain (nullptr: ran through).
  const char* stopped_by = nullptr;
};

/// Listener names of the controller-core services. --pipeline-stats
/// prints them, and per-listener dispatch metrics are named from them.
inline constexpr const char* kLinkDiscoveryServiceName = "link-discovery";
inline constexpr const char* kHostTrackingServiceName = "host-tracking";
inline constexpr const char* kRoutingServiceName = "routing";

class MessageListener {
 public:
  virtual ~MessageListener() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// OR-mask of MessageType values this listener receives.
  [[nodiscard]] virtual std::uint32_t subscriptions() const = 0;
  virtual Disposition on_message(const PipelineMessage& msg,
                                 DispatchContext& ctx) = 0;
};

class MessagePipeline {
 public:
  /// Per-listener observability snapshot (stats() returns chain order).
  struct ListenerStats {
    std::string name;
    int priority = 0;
    bool enabled = true;
    std::uint32_t subscriptions = 0;
    std::uint64_t dispatches = 0;  // messages delivered
    std::uint64_t stops = 0;       // dispositions that ended the chain
  };

  /// Register a borrowed listener at `priority` (lower runs first, ties
  /// break on name; duplicate names get a deterministic "#N" suffix).
  void add(int priority, MessageListener& listener);
  /// Register an owned listener (adapter objects, test fixtures).
  MessageListener& add_owned(int priority,
                             std::unique_ptr<MessageListener> listener);

  /// Walk the chain for `msg`; `ctx` accumulates verdicts and records
  /// who stopped the dispatch.
  void dispatch(const PipelineMessage& msg, DispatchContext& ctx);
  /// Convenience: dispatch with a fresh context, return its verdict.
  Verdict dispatch(const PipelineMessage& msg);

  /// Enable/disable a listener by name; returns false for unknown names.
  /// Disabled listeners stay in the chain (order is stable) but receive
  /// nothing.
  bool set_enabled(const std::string& name, bool enabled);
  [[nodiscard]] bool is_enabled(const std::string& name) const;

  /// Attach the observability layer (borrowed; nullptr detaches, which
  /// is the default and the zero-cost path). `loop` supplies sim-time
  /// stamps for dispatch spans and queue-depth readings. With a null
  /// obs pointer dispatch behavior is bit-identical to an unobserved
  /// pipeline — the pipeline-equivalence goldens hold this.
  void set_observability(obs::Observability* obs, const sim::EventLoop* loop);
  [[nodiscard]] obs::Observability* observability() const { return obs_; }

  /// Zero every per-listener dispatch/stop counter (chain
  /// membership and enabled flags are untouched). The trial-reset path
  /// calls this so a pipeline reused across trials starts from zeroed
  /// counters (tests/obs_test.cpp has the --jobs 8 regression test).
  void reset_stats();

  [[nodiscard]] std::vector<ListenerStats> stats() const;
  /// Listener names in dispatch order.
  [[nodiscard]] std::vector<std::string> chain_names() const;
  [[nodiscard]] std::size_t size() const { return chain_.size(); }

  /// Internal-coherence self-check for the invariant checker: chain
  /// sorted by (priority, name), names unique, counters consistent.
  [[nodiscard]] std::vector<std::string> audit() const;

 private:
  struct Entry {
    int priority = 0;
    std::string name;
    MessageListener* listener = nullptr;
    std::unique_ptr<MessageListener> owned;
    std::uint32_t mask = 0;  // cached subscriptions()
    bool enabled = true;
    std::uint64_t dispatches = 0;
    std::uint64_t stops = 0;
  };

  void insert(Entry entry);
  [[nodiscard]] const Entry* find_entry(const std::string& name) const;
  /// Observed-dispatch helpers (only reached when obs_ != nullptr).
  [[nodiscard]] obs::SpanId open_dispatch_span(const PipelineMessage& msg);
  void close_listener_span(obs::SpanId span, const DispatchContext& ctx,
                           Disposition d, Verdict verdict_before);

  std::vector<Entry> chain_;  // sorted by (priority, name)
  obs::Observability* obs_ = nullptr;
  const sim::EventLoop* obs_loop_ = nullptr;
  // Metric handles, resolved once at attach (registry handles are stable
  // and survive MetricsRegistry::reset()).
  obs::Counter* obs_dispatches_ = nullptr;
  stats::Histogram* obs_queue_depth_ = nullptr;
  stats::Histogram* obs_visited_ = nullptr;
  /// Innermost open span: dispatch re-enters when a listener publishes a
  /// derived event, and the nested dispatch's span parents here.
  obs::SpanId obs_parent_ = 0;
};

}  // namespace tmg::ctrl
