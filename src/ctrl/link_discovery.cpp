#include "ctrl/link_discovery.hpp"

#include "ctrl/controller.hpp"
#include "obs/observability.hpp"

namespace tmg::ctrl {

namespace {
/// Period of the link-timeout sweep.
constexpr sim::Duration kLinkSweepInterval = sim::Duration::seconds(1);
}  // namespace

LinkDiscoveryService::LinkDiscoveryService(Controller& ctrl) : ctrl_{ctrl} {}

void LinkDiscoveryService::start() {
  emit_round();
  sweep();
}

std::string LinkDiscoveryService::name() const {
  return kLinkDiscoveryServiceName;
}

std::uint32_t LinkDiscoveryService::subscriptions() const {
  return MessageType::PacketIn | MessageType::PortStatus;
}

Disposition LinkDiscoveryService::on_message(const PipelineMessage& msg,
                                             DispatchContext&) {
  if (msg.type == MessageType::PacketIn) {
    if (!msg.packet_in->packet->is_lldp()) return Disposition::Continue;
    handle_lldp_packet_in(*msg.packet_in);
    return Disposition::Stop;  // LLDP never reaches host tracking/routing
  }
  if (msg.type == MessageType::PortStatus) {
    if (msg.port_status->reason == of::PortStatus::Reason::Down) {
      handle_port_down(of::Location{msg.port_status->dpid,
                                    msg.port_status->port});
    } else if (ctrl_.config().profile.probe_on_port_up) {
      // Event-triggered discovery (ONOS / sOFTDP): a port coming up is
      // probed immediately instead of waiting out the periodic round.
      emit_port(msg.port_status->dpid, msg.port_status->port);
    }
  }
  return Disposition::Continue;
}

net::LldpPacket LinkDiscoveryService::construct_lldp(
    of::Dpid dpid, of::PortNo port, std::uint64_t nonce,
    sim::SimTime departure) {
  net::LldpPacket lldp{dpid, port};
  if (ctrl_.config().lldp_timestamps) {
    lldp.set_encrypted_timestamp(ctrl_.ts_key(), nonce, departure);
  }
  if (ctrl_.config().authenticate_lldp) {
    const auto [mac, fresh] = macs_.try_emplace(core_of(lldp));
    if (fresh) mac->second = lldp.authenticator(ctrl_.lldp_key());
    lldp.set_authenticator(mac->second);
  }
  return lldp;
}

void LinkDiscoveryService::emit_port(of::Dpid dpid, of::PortNo port) {
  const sim::SimTime now = ctrl_.loop().now();
  obs::Observability* obs = ctrl_.observability();
  const std::uint64_t nonce = next_nonce_++;
  net::LldpPacket lldp = construct_lldp(dpid, port, nonce, now);
  auto [slot, first] = outstanding_.try_emplace(of::Location{dpid, port});
  // Superseding a probe that was never answered retires it to the
  // "expired" bucket (LLDP conservation; see lldp_accounting()).
  if (!first && !slot->second.matched) {
    ++expired_;
    if (obs != nullptr && slot->second.span != 0) {
      obs->trace().annotate(slot->second.span, "outcome", "expired");
      obs->trace().end_span(slot->second.span, now);
    }
  }
  obs::SpanId span = 0;
  if (obs != nullptr) {
    span = obs->trace().begin_span(now, "lldp", "rtt");
    obs->trace().annotate(span, "src", of::Location{dpid, port}.to_string());
  }
  slot->second = Emission{now, false, span};
  ++emissions_;
  ctrl_.send_packet_out(
      dpid, port,
      net::make_lldp_frame(net::MacAddress::lldp_multicast(),
                           std::move(lldp)));
}

void LinkDiscoveryService::emit_round() {
  for (const of::Dpid dpid : ctrl_.switch_dpids()) {
    for (const of::PortNo port : ctrl_.switch_ports(dpid)) {
      emit_port(dpid, port);
    }
  }
  ctrl_.loop().post_after(ctrl_.config().profile.lldp_interval,
                              [this] { emit_round(); });
}

std::optional<sim::Duration> LinkDiscoveryService::estimate_link_latency(
    const net::LldpPacket& lldp, of::Dpid src_dpid, of::Dpid dst_dpid,
    sim::SimTime received_at) const {
  const auto departure = lldp.decrypt_timestamp(ctrl_.ts_key());
  if (!departure) return std::nullopt;
  const auto rtt_src = ctrl_.control_rtt(src_dpid);
  const auto rtt_dst = ctrl_.control_rtt(dst_dpid);
  // T_link = T_LLDP - T_SW1 - T_SW2 (paper Sec. VI-D). The control-link
  // delays are one-way estimates: half the measured echo RTT. Until the
  // first echo completes we conservatively subtract nothing, which only
  // overestimates latency during bootstrap (visible as the Fig. 11
  // startup burst).
  sim::Duration t = received_at - *departure;
  if (rtt_src) t -= *rtt_src / 2;
  if (rtt_dst) t -= *rtt_dst / 2;
  if (t.is_negative()) t = sim::Duration::zero();
  return t;
}

void LinkDiscoveryService::handle_lldp_packet_in(const of::PacketIn& pi) {
  const net::LldpPacket* lldp = pi.packet->lldp();
  if (!lldp) return;
  ++receptions_;
  const sim::SimTime now = ctrl_.loop().now();

  const of::Location src{lldp->chassis_id(), lldp->port_id()};
  const of::Location dst{pi.dpid, pi.in_port};
  if (src == dst) {  // reflection; ignore
    ++reflected_;
    return;
  }

  LldpObservation obs;
  obs.src = src;
  obs.dst = dst;
  obs.received_at = now;

  // Signature check (TopoGuard "authenticated LLDP"): against the
  // memoized tag when this controller emitted the core, else a fresh MAC.
  if (ctrl_.config().authenticate_lldp) {
    const auto mac = macs_.find(core_of(*lldp));
    obs.signature_valid = mac != macs_.end()
                              ? lldp->verify(mac->second)
                              : lldp->verify(ctrl_.lldp_key());
  }
  if (!obs.signature_valid) {
    ++invalid_signature_;
    ctrl_.alerts().raise(Alert{now, "LinkDiscovery",
                               AlertType::InvalidLldpSignature,
                               "LLDP authenticator missing or invalid from " +
                                   dst.to_string(),
                               dst});
    return;  // forged LLDP never reaches topology
  }

  // Match against the last emission for the advertised port.
  const auto em = outstanding_.find(src);
  if (em != outstanding_.end()) {
    obs.emitted_at = em->second.sent_at;
    if (em->second.matched) {
      ++duplicate_;
    } else {
      em->second.matched = true;
      ++matched_;
      if (obs::Observability* obs = ctrl_.observability();
          obs != nullptr && em->second.span != 0) {
        obs->trace().annotate(em->second.span, "outcome", "matched");
        obs->trace().annotate(em->second.span, "dst", dst.to_string());
        obs->trace().end_span(em->second.span, now);
      }
    }
  } else {
    obs.emitted_at = now;  // unsolicited (e.g. fully forged chassis/port)
    ++unsolicited_;
  }

  if (ctrl_.config().lldp_timestamps) {
    obs.timestamp_present = lldp->has_timestamp();
    obs.link_latency =
        estimate_link_latency(*lldp, src.dpid, dst.dpid, now);
  }

  const topo::Link link{src, dst};
  const auto existing = links_.find(link);
  obs.is_new_link = existing == links_.end();

  if (ctrl_.notify_lldp_observation(obs) == Verdict::Block) return;

  if (obs.is_new_link) {
    links_.emplace(link, LinkState{link, now, now});
    ctrl_.topology().add_link(src, dst);
    if (ctrl_.observability() != nullptr) {
      ctrl_.trace_event(EventKind::LinkAdded, link.to_string(), dst);
    }
  } else {
    existing->second.last_verified = now;
  }
}

void LinkDiscoveryService::handle_port_down(of::Location loc) {
  auto it = links_.begin();
  while (it != links_.end()) {
    if (it->first.a == loc || it->first.b == loc) {
      const topo::Link link = it->first;
      it = links_.erase(it);
      ctrl_.topology().remove_link(link.a, link.b);
      if (ctrl_.observability() != nullptr) {
        ctrl_.trace_event(EventKind::LinkRemoved,
                          link.to_string() + " (port down)", loc);
      }
      ctrl_.notify_link_removed(link);
    } else {
      ++it;
    }
  }
}

void LinkDiscoveryService::sweep() {
  const sim::SimTime now = ctrl_.loop().now();
  const sim::Duration timeout = ctrl_.config().profile.link_timeout;
  auto it = links_.begin();
  while (it != links_.end()) {
    if (now - it->second.last_verified >= timeout) {
      const topo::Link link = it->first;
      it = links_.erase(it);
      ctrl_.topology().remove_link(link.a, link.b);
      if (ctrl_.observability() != nullptr) {
        ctrl_.trace_event(EventKind::LinkRemoved,
                          link.to_string() + " (timeout)", link.a);
      }
      ctrl_.notify_link_removed(link);
    } else {
      ++it;
    }
  }
  ctrl_.loop().post_after(kLinkSweepInterval, [this] { sweep(); });
}

LinkDiscoveryService::LldpAccounting LinkDiscoveryService::lldp_accounting()
    const {
  LldpAccounting acc;
  acc.emitted = emissions_;
  acc.matched = matched_;
  acc.expired = expired_;
  acc.duplicate = duplicate_;
  acc.unsolicited = unsolicited_;
  acc.reflected = reflected_;
  acc.invalid_signature = invalid_signature_;
  for (const auto& [_, em] : outstanding_) {
    if (!em.matched) ++acc.outstanding_unmatched;
  }
  return acc;
}

LinkDiscoveryService::Core LinkDiscoveryService::core_of(
    const net::LldpPacket& lldp) {
  return {lldp.chassis_id(), lldp.port_id(), lldp.ttl()};
}

std::vector<std::string> LinkDiscoveryService::audit() const {
  std::vector<std::string> issues;
  for (const auto& [core, mac] : macs_) {
    const auto& [chassis, port, ttl] = core;
    if (net::LldpPacket{chassis, port, ttl}.authenticator(ctrl_.lldp_key()) !=
        mac) {
      issues.push_back("LLDP authenticator memo: entry for " +
                       of::Location{chassis, port}.to_string() + " ttl " +
                       std::to_string(ttl) + " differs from a fresh HMAC");
    }
  }
  return issues;
}

std::vector<LinkDiscoveryService::LinkState>
LinkDiscoveryService::link_states() const {
  std::vector<LinkState> out;
  out.reserve(links_.size());
  for (const auto& [_, state] : links_) out.push_back(state);
  return out;
}

}  // namespace tmg::ctrl
