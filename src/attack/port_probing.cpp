#include "attack/port_probing.hpp"

#include "attack/nic_model.hpp"
#include "obs/observability.hpp"

namespace tmg::attack {

namespace {

/// Victim port the TCP probes target.
constexpr std::uint16_t kVictimTcpPort = 80;
/// After claiming the identity, keep originating gratuitous traffic at
/// this period so the binding stays fresh ("maintain persistence").
constexpr sim::Duration kMaintainPeriod = sim::Duration::millis(500);

LivenessProber::Config prober_config(const PortProbingConfig& cfg) {
  LivenessProber::Config pc;
  pc.type = cfg.probe_type;
  pc.timeout = cfg.probe_timeout;
  pc.tool_overhead = cfg.nmap_overhead;
  pc.zombie = cfg.zombie;
  return pc;
}

}  // namespace

PortProbingAttack::PortProbingAttack(sim::EventLoop& loop, sim::Rng rng,
                                     Host& attacker, PortProbingConfig config)
    : loop_{loop},
      rng_{std::move(rng)},
      host_{attacker},
      config_{config},
      prober_{loop, rng_.fork(), attacker, prober_config(config)} {
  // Capture the victim's MAC from the first ARP reply it sends us.
  host_.add_listener([this](const net::Packet& pkt) {
    if (victim_mac_) return;
    const auto* arp = pkt.arp();
    if (arp && arp->op == net::ArpPayload::Op::Reply &&
        arp->sender_ip == config_.victim_ip) {
      victim_mac_ = arp->sender_mac;
      timeline_.victim_mac_acquired = loop_.now();
      if (obs_ != nullptr) {
        obs_->trace().instant(loop_.now(), "attack", "mac-acquired",
                              victim_mac_->to_string(), span_root_);
      }
    }
  });
}

void PortProbingAttack::set_observability(obs::Observability* obs) {
  obs_ = obs;
  if (obs_ == nullptr) return;
  obs_->add_collector([this](obs::MetricsRegistry& m, sim::SimTime) {
    m.gauge("attack.probes_run").set(static_cast<double>(probes_run_));
    m.gauge("attack.identity_claimed").set(identity_claimed() ? 1.0 : 0.0);
  });
}

void PortProbingAttack::start() {
  timeline_.started = loop_.now();
  if (obs_ != nullptr) {
    span_root_ = obs_->trace().begin_span(loop_.now(), "attack", "hijack");
    obs_->trace().annotate(span_root_, "victim_ip",
                           config_.victim_ip.to_string());
  }
  acquire_mac();
}

void PortProbingAttack::acquire_mac() {
  if (victim_mac_) {
    schedule_probe();
    return;
  }
  host_.send_arp_request(config_.victim_ip);
  // Retry until the victim answers (it is online at attack start).
  loop_.post_after(sim::Duration::millis(100), [this] { acquire_mac(); });
}

void PortProbingAttack::schedule_probe() {
  if (hijacking_) return;
  loop_.post_after(config_.probe_period, [this] { run_probe(); });
}

void PortProbingAttack::run_probe() {
  if (hijacking_ || prober_.busy()) {
    schedule_probe();
    return;
  }
  ++probes_run_;
  ProbeTarget target;
  target.ip = config_.victim_ip;
  target.mac = *victim_mac_;
  target.tcp_port = kVictimTcpPort;
  prober_.probe(target,
                [this](const ProbeOutcome& outcome) { on_probe(outcome); });
  schedule_probe();
}

void PortProbingAttack::on_probe(const ProbeOutcome& outcome) {
  if (hijacking_) return;
  if (obs_ != nullptr) {
    // Retroactive span: the prober runs one probe at a time, so the
    // outcome carries the exact send/decide instants.
    const obs::SpanId s = obs_->trace().begin_span(outcome.started, "attack",
                                                   "probe", span_root_);
    obs_->trace().annotate(s, "alive", outcome.alive ? "true" : "false");
    obs_->trace().end_span(s, outcome.finished);
  }
  if (outcome.alive) {
    consecutive_failures_ = 0;
    return;
  }
  ++consecutive_failures_;
  timeline_.final_probe_start = outcome.started;
  if (consecutive_failures_ < config_.confirm_failures) return;
  timeline_.victim_declared_down = outcome.finished;
  if (obs_ != nullptr) {
    const obs::SpanId detect = obs_->trace().begin_span(
        outcome.started, "attack", "disconnect-detect", span_root_);
    obs_->trace().annotate(detect, "confirm_failures",
                           std::to_string(consecutive_failures_));
    obs_->trace().end_span(detect, outcome.finished);
    span_race_ = obs_->trace().begin_span(outcome.finished, "attack", "race",
                                          span_root_);
  }
  hijack();
}

void PortProbingAttack::hijack() {
  hijacking_ = true;
  if (obs_ != nullptr) {
    span_ident_ = obs_->trace().begin_span(loop_.now(), "attack",
                                           "ident-change", span_race_);
  }
  // "ifconfig can reset a NIC's MAC and IP rapidly enough that spoofing
  // via packet header rewriting is unnecessary" (paper Sec. IV-B). The
  // latency follows the ifconfig identity-change model (paper Fig. 4).
  host_.change_identity_timed(
      *victim_mac_, config_.victim_ip, NicOpModel::identity_change(), [this] {
        timeline_.interface_up_as_victim = loop_.now();
        if (obs_ != nullptr) {
          obs_->trace().end_span(span_ident_, loop_.now());
        }
        // Originate traffic to generate a Packet-In and complete the
        // victim's "move" in the Host Tracking Service. A gratuitous
        // ARP is ordinary, expected dataplane traffic.
        host_.send_arp_request(config_.victim_ip);
        timeline_.traffic_sent = loop_.now();
        if (obs_ != nullptr) {
          obs_->trace().instant(loop_.now(), "attack", "traffic-sent", "",
                                span_race_);
        }
        if (on_claimed_) on_claimed_();
        maintain();
      });
}

void PortProbingAttack::maintain() {
  host_.send_arp_request(config_.victim_ip);
  loop_.post_after(kMaintainPeriod, [this] { maintain(); });
}

void PortProbingAttack::mark_hijack_confirmed(sim::SimTime at) {
  if (timeline_.hijack_confirmed) return;
  timeline_.hijack_confirmed = at;
  if (obs_ != nullptr) {
    obs_->trace().annotate(span_race_, "outcome", "hijack-confirmed");
    obs_->trace().end_span(span_race_, at);
    obs_->trace().end_span(span_root_, at);
  }
}

}  // namespace tmg::attack
