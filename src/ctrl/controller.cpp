#include "ctrl/controller.hpp"

#include <memory>
#include <stdexcept>

#include "check/assert.hpp"
#include "ctrl/host_tracker.hpp"
#include "ctrl/link_discovery.hpp"
#include "ctrl/routing.hpp"
#include "obs/observability.hpp"
#include "stats/flow_stats.hpp"

namespace tmg::ctrl {

namespace {

/// Seed label for the controller's keys.
constexpr const char* kKeySeed = "topomirage-controller-key";

/// Key-derivation input for one key: "<kKeySeed>/<purpose>".
std::vector<std::uint8_t> key_material(const char* purpose) {
  const std::string s = std::string{kKeySeed} + "/" + purpose;
  return {s.begin(), s.end()};
}

/// Period of control-link echo RTT probes (LLI calibration).
constexpr sim::Duration kEchoInterval = sim::Duration::seconds(2);

void validate_config(const ControllerConfig& c) {
  TMG_ASSERT(c.profile.lldp_interval.count_nanos() > 0,
             "ControllerConfig: profile.lldp_interval must be positive");
  TMG_ASSERT(c.profile.link_timeout.count_nanos() > 0,
             "ControllerConfig: profile.link_timeout must be positive");
}

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::PacketIn: return "PACKET_IN";
    case EventKind::PacketOut: return "PACKET_OUT";
    case EventKind::FlowMod: return "FLOW_MOD";
    case EventKind::PortUp: return "PORT_UP";
    case EventKind::PortDown: return "PORT_DOWN";
    case EventKind::LinkAdded: return "LINK_ADDED";
    case EventKind::LinkRemoved: return "LINK_REMOVED";
    case EventKind::HostNew: return "HOST_NEW";
    case EventKind::HostMoved: return "HOST_MOVED";
    case EventKind::HostMoveRejected: return "HOST_MOVE_REJECTED";
    case EventKind::HostBlocked: return "HOST_BLOCKED";
    case EventKind::Alert: return "ALERT";
    case EventKind::EchoRtt: return "ECHO_RTT";
  }
  return "?";
}

/// Priority 0: controller-internal consumption. Traces raw messages,
/// answers ARP for the controller's identity, eats probe replies and
/// echo bookkeeping before anything else sees them.
class Controller::CoreListener final : public MessageListener {
 public:
  explicit CoreListener(Controller& c) : c_{c} {}

  [[nodiscard]] std::string name() const override { return "controller-core"; }

  [[nodiscard]] std::uint32_t subscriptions() const override {
    return MessageType::PacketIn | MessageType::PortStatus |
           MessageType::EchoReply | MessageType::FlowRemoved;
  }

  Disposition on_message(const PipelineMessage& msg,
                         DispatchContext&) override {
    switch (msg.type) {
      case MessageType::PacketIn: return on_packet_in(*msg.packet_in);
      case MessageType::PortStatus: {
        const of::PortStatus& ps = *msg.port_status;
        c_.trace_event(ps.reason == of::PortStatus::Reason::Down
                           ? EventKind::PortDown
                           : EventKind::PortUp,
                       "", of::Location{ps.dpid, ps.port});
        return Disposition::Continue;
      }
      case MessageType::EchoReply:
        c_.handle_echo_reply(msg.dpid, *msg.echo_reply);
        return Disposition::Stop;  // controller-internal RTT bookkeeping
      case MessageType::FlowRemoved:
        // Flow expiry needs no controller action in this model.
        return Disposition::Stop;
      default: return Disposition::Continue;
    }
  }

 private:
  Disposition on_packet_in(const of::PacketIn& pi) {
    if (c_.obs_ != nullptr) {
      c_.trace_event(EventKind::PacketIn, pi.packet->describe(),
                     of::Location{pi.dpid, pi.in_port});
    }
    // Controller-internal probe replies never reach services or defenses.
    if (c_.consume_probe_reply(pi)) return Disposition::Stop;
    if (pi.in_port == of::kPortController) {
      return Disposition::Stop;  // bounced LLI probe
    }
    // Answer ARP for the controller's own (virtual) identity, so probed
    // hosts can resolve the source of reachability pings.
    if (const auto* arp = pi.packet->arp();
        arp != nullptr && arp->op == net::ArpPayload::Op::Request &&
        arp->target_ip == c_.ip()) {
      c_.send_packet_out(pi.dpid, pi.in_port,
                         net::make_arp_reply(c_.mac(), c_.ip(),
                                             arp->sender_mac, arp->sender_ip));
      return Disposition::Stop;
    }
    return Disposition::Continue;
  }

  Controller& c_;
};

/// Priority 900: between the defense block and the services. Stops a
/// Packet-In whose accumulated verdict is Block — every defense has
/// seen the message by now (paper Sec. IV-B: alerting and blocking are
/// independent), but no service commits state for it. Only OrderedStop
/// chains have one.
class Controller::VerdictGate final : public MessageListener {
 public:
  [[nodiscard]] std::string name() const override { return "verdict-gate"; }

  [[nodiscard]] std::uint32_t subscriptions() const override {
    return mask_of(MessageType::PacketIn);
  }

  Disposition on_message(const PipelineMessage&,
                         DispatchContext& ctx) override {
    return ctx.verdict == Verdict::Block ? Disposition::Stop
                                         : Disposition::Continue;
  }
};

namespace {

/// Hands `msg` to the matching typed hook of `module`. A Block verdict
/// accumulates into the context; every other hook result is Allow.
void deliver(DefenseModule& module, const PipelineMessage& msg,
             DispatchContext& ctx) {
  Verdict v = Verdict::Allow;
  switch (msg.type) {
    case MessageType::PacketIn:
      v = module.on_packet_in(*msg.packet_in);
      break;
    case MessageType::PortStatus:
      module.on_port_status(*msg.port_status);
      break;
    case MessageType::FlowStats:
      module.on_flow_stats(*msg.flow_stats);
      break;
    case MessageType::PortStats:
      module.on_port_stats(*msg.port_stats);
      break;
    case MessageType::LldpObservation:
      v = module.on_lldp_observation(*msg.lldp_observation);
      break;
    case MessageType::HostEvent:
      v = module.on_host_event(*msg.host_event);
      break;
    case MessageType::LinkRemoved:
      module.on_link_removed(*msg.link_removed);
      break;
    case MessageType::FlowModOut:
      module.on_flow_mod(msg.dpid, *msg.flow_mod);
      break;
    default: break;
  }
  if (v == Verdict::Block) ctx.verdict = Verdict::Block;
}

/// Adapts a DefenseModule's typed hooks onto the listener interface.
/// Always returns Continue: defenses influence the dispatch only
/// through the accumulated context verdict (the gate stops the chain),
/// so sibling defenses never shadow each other.
class DefenseListenerAdapter final : public MessageListener {
 public:
  explicit DefenseListenerAdapter(DefenseModule& module) : module_{module} {}

  [[nodiscard]] std::string name() const override { return module_.name(); }

  [[nodiscard]] std::uint32_t subscriptions() const override {
    return kDefenseSubscriptions;
  }

  Disposition on_message(const PipelineMessage& msg,
                         DispatchContext& ctx) override {
    deliver(module_, msg, ctx);
    return Disposition::Continue;
  }

 private:
  DefenseModule& module_;
};

/// Adapts the controller's (optional, borrowed) anomaly detector onto
/// the chain. Registered unconditionally at kAnomalyIdsSlot so the
/// chain shape does not depend on detector presence; with no detector
/// attached every dispatch is a subscription-masked no-op. Verdicts
/// accumulate exactly like the defense band's — whether the Block ever
/// bites is the gate's (and the dispatch discipline's) business.
class AnomalyListenerAdapter final : public MessageListener {
 public:
  explicit AnomalyListenerAdapter(const Controller& c) : c_{c} {}

  [[nodiscard]] std::string name() const override { return "anomaly-ids"; }

  [[nodiscard]] std::uint32_t subscriptions() const override {
    return MessageType::PacketIn | MessageType::PortStatus |
           MessageType::LldpObservation | MessageType::HostEvent |
           MessageType::LinkRemoved | MessageType::FlowModOut;
  }

  Disposition on_message(const PipelineMessage& msg,
                         DispatchContext& ctx) override {
    DefenseModule* det = c_.anomaly_detector();
    if (det != nullptr) deliver(*det, msg, ctx);
    return Disposition::Continue;
  }

 private:
  const Controller& c_;
};

}  // namespace

Controller::Controller(sim::EventLoop& loop, sim::Rng rng,
                       ControllerConfig config)
    : loop_{loop},
      rng_{std::move(rng)},
      config_{std::move(config)},
      lldp_key_{crypto::Key::derive(key_material("lldp"))},
      ts_key_{crypto::XteaKey::derive(key_material("ts"))} {
  validate_config(config_);
  links_ = std::make_unique<LinkDiscoveryService>(*this);
  hosts_ = std::make_unique<HostTrackingService>(*this);
  routing_ = std::make_unique<RoutingService>(*this);

  pipeline_.add_owned(kCoreSlot, std::make_unique<CoreListener>(*this));
  pipeline_.add_owned(kAnomalyIdsSlot,
                      std::make_unique<AnomalyListenerAdapter>(*this));
  // Broadcast-observe controllers (OpenDaylight) have no verdict gate.
  if (config_.profile.discipline == DispatchDiscipline::OrderedStop) {
    pipeline_.add_owned(kVerdictGateSlot, std::make_unique<VerdictGate>());
  }
  pipeline_.add(kLinkDiscoverySlot, *links_);
  pipeline_.add(kHostTrackingSlot, *hosts_);
  pipeline_.add(kRoutingSlot, *routing_);
}

Controller::~Controller() = default;

void Controller::connect_switch(of::Dpid dpid, of::ControlChannel& channel,
                                std::vector<of::PortNo> ports) {
  auto [it, inserted] = switches_.try_emplace(dpid);
  if (!inserted) throw std::logic_error("switch already connected");
  it->second.channel = &channel;
  it->second.ports = std::move(ports);
  // Interned once here; every message from this switch carries the index.
  const std::uint32_t index = topology_.intern(dpid);
  channel.attach_controller([this, dpid, index](const of::SwitchToCtrl& msg) {
    dispatch(dpid, index, msg);
  });
}

void Controller::start() {
  if (started_) return;
  started_ = true;
  links_->start();
  echo_tick();
}

DefenseModule& Controller::add_defense(std::unique_ptr<DefenseModule> module) {
  TMG_ASSERT(module != nullptr, "add_defense: null module");
  modules_.push_back(std::move(module));
  DefenseModule& ref = *modules_.back();
  const int priority =
      kDefenseBase + kDefenseStep * static_cast<int>(modules_.size() - 1);
  pipeline_.add_owned(priority, std::make_unique<DefenseListenerAdapter>(ref));
  return ref;
}

std::vector<of::Dpid> Controller::switch_dpids() const {
  std::vector<of::Dpid> out;
  out.reserve(switches_.size());
  for (const auto& [dpid, _] : switches_) out.push_back(dpid);
  return out;
}

const std::vector<of::PortNo>& Controller::switch_ports(of::Dpid dpid) const {
  return switches_.at(dpid).ports;
}

std::optional<sim::Duration> Controller::control_rtt(of::Dpid dpid) const {
  const auto it = switches_.find(dpid);
  if (it == switches_.end() || it->second.recent_rtts.empty()) {
    return std::nullopt;
  }
  sim::Duration sum = sim::Duration::zero();
  for (const auto d : it->second.recent_rtts) sum += d;
  return sum / static_cast<std::int64_t>(it->second.recent_rtts.size());
}

net::MacAddress Controller::mac() const {
  return net::MacAddress{{0x02, 0xc0, 0xff, 0xee, 0x00, 0x01}};
}

net::Ipv4Address Controller::ip() const {
  return net::Ipv4Address{10, 255, 255, 254};
}

void Controller::send_packet_out(of::Dpid dpid, of::PortNo out_port,
                                 net::PacketPtr pkt, of::PortNo in_port) {
  const auto it = switches_.find(dpid);
  if (it == switches_.end()) return;
  it->second.channel->to_switch(
      of::PacketOut{out_port, in_port, std::move(pkt)});
}

void Controller::send_packet_out(of::Dpid dpid, of::PortNo out_port,
                                 net::Packet pkt, of::PortNo in_port) {
  send_packet_out(dpid, out_port,
                  std::make_shared<const net::Packet>(std::move(pkt)),
                  in_port);
}

void Controller::send_flow_mod(of::Dpid dpid, of::FlowMod fm) {
  const auto it = switches_.find(dpid);
  if (it == switches_.end()) return;
  pipeline_.dispatch(PipelineMessage::from(dpid, fm));
  if (obs_ != nullptr) {
    trace_event(EventKind::FlowMod,
                (fm.command == of::FlowMod::Command::Add ? "add " : "del ") +
                    fm.match.to_string(),
                of::Location{dpid, fm.action.out_port});
  }
  it->second.channel->to_switch(std::move(fm));
}

void Controller::set_observability(obs::Observability* obs) {
  obs_ = obs;
  pipeline_.set_observability(obs, &loop_);
  if (obs_ == nullptr) {
    obs_echo_rtt_ = nullptr;
    return;
  }
  if (!alert_mirror_subscribed_) {
    alert_mirror_subscribed_ = true;
    alerts_.subscribe([this](const Alert& alert) {
      if (obs_ == nullptr) return;
      trace_event(EventKind::Alert, alert.module + ": " + alert.message,
                  alert.location);
    });
  }
  obs_echo_rtt_ =
      &obs_->metrics().histogram("ctrl.echo_rtt_ms", 0.0, 50.0, 50);
  // Export-time mirror: copies module totals into the registry right
  // before a snapshot, so no hot path pays for bookkeeping it already
  // does for its own accessors. Gauges are set absolutely — collecting
  // twice is idempotent.
  obs_->add_collector([this](obs::MetricsRegistry& m, sim::SimTime) {
    m.gauge("ctrl.alerts_total").set(static_cast<double>(alerts_.count()));
    m.gauge("ctrl.switches").set(static_cast<double>(switches_.size()));
    m.gauge("ctrl.hosts_tracked")
        .set(static_cast<double>(host_tracker().host_count()));
    const auto& flow = obs_->flow_stats();
    m.gauge("flow.packets").set(static_cast<double>(flow.packets()));
    m.gauge("flow.bytes").set(static_cast<double>(flow.bytes()));
    m.gauge("flow.mean_packet_bytes").set(flow.mean_packet_bytes());
    m.gauge("flow.switch_cells")
        .set(static_cast<double>(flow.switch_cells()));
    m.gauge("flow.port_cells").set(static_cast<double>(flow.port_cells()));
    const auto acc = links_->lldp_accounting();
    m.gauge("lldp.emitted").set(static_cast<double>(acc.emitted));
    m.gauge("lldp.matched").set(static_cast<double>(acc.matched));
    m.gauge("lldp.expired").set(static_cast<double>(acc.expired));
    m.gauge("lldp.duplicate").set(static_cast<double>(acc.duplicate));
    m.gauge("lldp.unsolicited").set(static_cast<double>(acc.unsolicited));
    m.gauge("lldp.reflected").set(static_cast<double>(acc.reflected));
    m.gauge("lldp.invalid_signature")
        .set(static_cast<double>(acc.invalid_signature));
    m.gauge("lldp.links").set(static_cast<double>(links_->link_states().size()));
    for (const auto& s : pipeline_.stats()) {
      m.gauge("pipeline.listener_dispatches{listener=" + s.name + "}")
          .set(static_cast<double>(s.dispatches));
      m.gauge("pipeline.listener_stops{listener=" + s.name + "}")
          .set(static_cast<double>(s.stops));
    }
  });
}

void Controller::trace_event(EventKind kind, std::string detail,
                             std::optional<of::Location> loc) {
  if (obs_ == nullptr) return;
  obs::TraceLog& log = obs_->trace();
  const obs::SpanId id =
      log.instant(loop_.now(), "ctrl", to_string(kind), std::move(detail));
  if (id != 0 && loc) log.annotate(id, "loc", loc->to_string());
}

void Controller::request_flow_stats(of::Dpid dpid) {
  const auto it = switches_.find(dpid);
  if (it == switches_.end()) return;
  it->second.channel->to_switch(of::FlowStatsRequest{next_flow_stats_xid_++});
}

void Controller::request_port_stats(of::Dpid dpid) {
  const auto it = switches_.find(dpid);
  if (it == switches_.end()) return;
  it->second.channel->to_switch(of::PortStatsRequest{next_port_stats_xid_++});
}

void Controller::probe_reachability(of::Location loc, net::MacAddress dst_mac,
                                    net::Ipv4Address dst_ip,
                                    sim::Duration timeout,
                                    std::function<void(bool)> done) {
  const std::uint16_t ident = next_probe_ident_++;
  net::Packet probe =
      net::make_icmp_echo(mac(), ip(), dst_mac, dst_ip, ident, 1);
  PendingProbe pending;
  pending.done = std::move(done);
  if (obs_ != nullptr) {
    pending.span =
        obs_->trace().begin_span(loop_.now(), "ctrl", "probe.reachability");
    obs_->trace().annotate(pending.span, "loc", loc.to_string());
  }
  pending.timeout =
      loop_.schedule_after(timeout, [this, ident] {
        auto it = pending_probes_.find(ident);
        if (it == pending_probes_.end()) return;
        auto cb = std::move(it->second.done);
        finish_probe_span(it->second.span, false);
        pending_probes_.erase(it);
        cb(false);
      });
  pending_probes_.emplace(ident, std::move(pending));
  send_packet_out(loc.dpid, loc.port, std::move(probe));
}

bool Controller::consume_probe_reply(const of::PacketIn& pi) {
  const auto* icmp = pi.packet->icmp();
  if (!icmp || icmp->type != net::IcmpPayload::Type::EchoReply) return false;
  if (pi.packet->dst_mac != mac()) return false;
  auto it = pending_probes_.find(icmp->ident);
  if (it == pending_probes_.end()) return true;  // stale reply: still ours
  auto cb = std::move(it->second.done);
  it->second.timeout.cancel();
  finish_probe_span(it->second.span, true);
  pending_probes_.erase(it);
  cb(true);
  return true;
}

void Controller::finish_probe_span(obs::SpanId span, bool reachable) {
  if (span == 0 || obs_ == nullptr) return;
  obs_->trace().annotate(span, "reachable", reachable ? "true" : "false");
  obs_->trace().end_span(span, loop_.now());
}

Verdict Controller::notify_host_event(const HostEvent& ev) {
  const Verdict v = pipeline_.dispatch(PipelineMessage::from(ev));
  // Broadcast-observe controllers (OpenDaylight) treat defense verdicts
  // as advisory: every subscriber has seen the event and any alerts are
  // raised, but the service commit is never suppressed.
  if (config_.profile.discipline == DispatchDiscipline::BroadcastObserve) {
    return Verdict::Allow;
  }
  return v;
}

Verdict Controller::notify_lldp_observation(const LldpObservation& obs) {
  const Verdict v = pipeline_.dispatch(PipelineMessage::from(obs));
  if (config_.profile.discipline == DispatchDiscipline::BroadcastObserve) {
    return Verdict::Allow;
  }
  return v;
}

void Controller::notify_link_removed(const topo::Link& link) {
  pipeline_.dispatch(PipelineMessage::from(link));
}

void Controller::dispatch(of::Dpid dpid, std::uint32_t index,
                          const of::SwitchToCtrl& msg) {
  struct Visitor {
    Controller& c;
    of::Dpid dpid;
    std::uint32_t index;
    void operator()(const of::PacketIn& pi) {
      // Streaming traffic stats ride the same null-obs guard as every
      // other observability hook: unobserved runs skip the accounting
      // entirely (the goldens hold because FlowStats feeds no control
      // decision).
      if (c.obs_ != nullptr) {
        c.obs_->flow_stats().record(
            pi.dpid, stats::FlowStats::port_key(pi.dpid, pi.in_port),
            pi.packet->wire_size());
      }
      c.pipeline_.dispatch(PipelineMessage::from(index, pi));
    }
    void operator()(const of::PortStatus& ps) {
      c.pipeline_.dispatch(PipelineMessage::from(dpid, index, ps));
    }
    void operator()(const of::EchoReply& er) {
      c.pipeline_.dispatch(PipelineMessage::from(dpid, index, er));
    }
    void operator()(const of::FlowRemoved& fr) {
      c.pipeline_.dispatch(PipelineMessage::from(dpid, index, fr));
    }
    void operator()(const of::FlowStatsReply& fsr) {
      c.pipeline_.dispatch(PipelineMessage::from(dpid, index, fsr));
    }
    void operator()(const of::PortStatsReply& psr) {
      c.pipeline_.dispatch(PipelineMessage::from(dpid, index, psr));
    }
  };
  std::visit(Visitor{*this, dpid, index}, msg);
}

void Controller::handle_echo_reply(of::Dpid dpid, const of::EchoReply& er) {
  auto it = switches_.find(dpid);
  if (it == switches_.end()) return;
  auto& conn = it->second;
  const auto sent = conn.pending_echo.find(er.token);
  if (sent == conn.pending_echo.end()) return;
  const sim::Duration rtt = loop_.now() - sent->second;
  conn.pending_echo.erase(sent);
  conn.recent_rtts.push_back(rtt);
  // Paper Sec. VI-D: average of the latest three measurements.
  while (conn.recent_rtts.size() > 3) conn.recent_rtts.pop_front();
  if (obs_echo_rtt_ != nullptr) obs_echo_rtt_->add(rtt.to_millis_f());
  if (obs_ != nullptr) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "rtt=%.3fms", rtt.to_millis_f());
    trace_event(EventKind::EchoRtt, buf, of::Location{dpid, 0});
  }
}

void Controller::echo_tick() {
  for (auto& [dpid, conn] : switches_) {
    const std::uint64_t token = next_echo_token_++;
    conn.pending_echo.emplace(token, loop_.now());
    conn.channel->to_switch(of::EchoRequest{token});
  }
  loop_.post_after(kEchoInterval, [this] { echo_tick(); });
}

}  // namespace tmg::ctrl
