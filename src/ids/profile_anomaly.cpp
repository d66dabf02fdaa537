#include "ids/profile_anomaly.hpp"

#include <algorithm>

#include "stats/flow_stats.hpp"

namespace tmg::ids {

namespace {

/// Reserved OpenFlow port range (kPortFlood and up). Packet-Ins from
/// these never reach the anomaly slot today (the core consumes bounced
/// probes); the guard keeps a reserved port out of the per-port tables
/// should that ever change.
constexpr std::uint16_t kReservedPortFloor = 0xfffb;

/// Rate breach: events in one sim-second bucket exceed
/// trained_peak * kRateMultiplier + kRateMargin. The margin absorbs
/// small-sample training peaks on quiet ports.
constexpr double kRateMultiplier = 2.0;
constexpr std::uint64_t kRateMargin = 8;
/// Duration outlier: a span runs past
/// max(trained_max * kDurationMultiplier, trained_p99).
constexpr double kDurationMultiplier = 2.0;

const char* instant_name(int kind) {
  switch (kind) {
    case 0: return "ANOMALY_PORT";
    case 1: return "ANOMALY_TRANSITION";
    case 2: return "ANOMALY_TRIGRAM";
    case 3: return "ANOMALY_LLDP_SRC";
    case 4: return "ANOMALY_RATE";
    case 5: return "ANOMALY_DURATION";
    default: return "ANOMALY";
  }
}

Symbol classify(const net::Packet& pkt) {
  if (pkt.arp() != nullptr) return Symbol::PktArp;
  if (pkt.icmp() != nullptr || pkt.tcp() != nullptr) return Symbol::PktIp;
  if (pkt.lldp() != nullptr) return Symbol::PktLldp;
  return Symbol::PktOther;
}

}  // namespace

ProfileAnomalyService::ProfileAnomalyService(sim::EventLoop& loop,
                                             AnomalyConfig config)
    : loop_{loop}, config_{config} {}

void ProfileAnomalyService::set_observability(obs::Observability* obs) {
  obs_ = obs;
  if (obs_ == nullptr) {
    c_scored_ = c_unseen_port_ = c_unseen_transition_ = c_unseen_trigram_ =
        c_lldp_src_ = c_rate_breach_ = c_duration_outlier_ = c_alerts_ =
            c_vetoes_ = nullptr;
    g_score_ = g_ports_ = nullptr;
    return;
  }
  obs::MetricsRegistry& m = obs_->metrics();
  c_scored_ = &m.counter("ids.anomaly.scored");
  c_unseen_port_ = &m.counter("ids.anomaly.unseen_port");
  c_unseen_transition_ = &m.counter("ids.anomaly.unseen_transition");
  c_unseen_trigram_ = &m.counter("ids.anomaly.unseen_trigram");
  c_lldp_src_ = &m.counter("ids.anomaly.lldp_src");
  c_rate_breach_ = &m.counter("ids.anomaly.rate_breach");
  c_duration_outlier_ = &m.counter("ids.anomaly.duration_outlier");
  c_alerts_ = &m.counter("ids.anomaly.alerts");
  c_vetoes_ = &m.counter("ids.anomaly.vetoes");
  g_score_ = &m.gauge("ids.anomaly.score");
  g_ports_ = &m.gauge("ids.anomaly.ports_tracked");
}

void ProfileAnomalyService::reset() {
  state_.clear();
  alerted_.clear();
  counters_ = AnomalyCounters{};
  if (g_score_ != nullptr) g_score_->set(0.0);
  if (g_ports_ != nullptr) g_ports_->set(0.0);
}

const PortProfile* ProfileAnomalyService::baseline(PortKey port) const {
  if (profile_ == nullptr) return nullptr;
  const auto it = profile_->ports.find(port);
  return it == profile_->ports.end() ? nullptr : &it->second;
}

template <typename MessageFn>
bool ProfileAnomalyService::deviate(Deviation kind, PortKey port,
                                    MessageFn&& message) {
  const int k = static_cast<int>(kind);
  obs::Counter* per_kind = nullptr;
  switch (kind) {
    case Deviation::UnseenPort:
      ++counters_.unseen_port;
      per_kind = c_unseen_port_;
      break;
    case Deviation::UnseenTransition:
      ++counters_.unseen_transition;
      per_kind = c_unseen_transition_;
      break;
    case Deviation::UnseenTrigram:
      ++counters_.unseen_trigram;
      per_kind = c_unseen_trigram_;
      break;
    case Deviation::LldpSrc:
      ++counters_.lldp_src_violation;
      per_kind = c_lldp_src_;
      break;
    case Deviation::RateBreach:
      ++counters_.rate_breach;
      per_kind = c_rate_breach_;
      break;
    case Deviation::DurationOutlier:
      ++counters_.duration_outlier;
      per_kind = c_duration_outlier_;
      break;
  }
  bump(per_kind);
  const bool alert_grade = kind != Deviation::UnseenTrigram;
  const bool first_alert = alert_grade && alerts_ != nullptr &&
                           !alerted_.contains(std::pair{port, k});
  // The text is built only when a trace instant or a first alert reads
  // it: a repeat deviation with observability off costs no string.
  if (obs_ == nullptr && !first_alert) return alert_grade;
  std::string text = message();
  if (obs_ != nullptr) {
    const obs::SpanId id =
        obs_->trace().instant(loop_.now(), "ids", instant_name(k), text);
    obs_->trace().annotate(id, "loc", port_key_to_string(port));
    if (g_score_ != nullptr) {
      g_score_->set(static_cast<double>(counters_.deviations()));
    }
  }
  if (first_alert) {
    alerted_.emplace(port, k);
    alerts_->raise(ctrl::Alert{loop_.now(), name(),
                               ctrl::AlertType::AnomalyDeviation,
                               std::move(text), port_key_location(port)});
    ++counters_.alerts;
    bump(c_alerts_);
  }
  return alert_grade;
}

ctrl::Verdict ProfileAnomalyService::score(PortKey port, Symbol sym) {
  if (trainer_ != nullptr) {
    trainer_->observe(port, sym, loop_.now());
    return ctrl::Verdict::Allow;
  }
  if (profile_ == nullptr) return ctrl::Verdict::Allow;
  ++counters_.scored;
  bump(c_scored_);
  const bool fresh_port = state_.count(port) == 0;
  PortState& st = state_[port];
  if (fresh_port && g_ports_ != nullptr) {
    g_ports_->set(static_cast<double>(state_.size()));
  }
  bool flagged = false;
  const PortProfile* base = baseline(port);
  if (base == nullptr) {
    flagged |= deviate(Deviation::UnseenPort, port, [] {
      return std::string{"event at port with no trained baseline"};
    });
  } else {
    const Symbol s1 = st.s1;
    const Symbol s2 = st.s2;
    if (base->bigrams.count(bigram_key(s1, sym)) == 0) {
      flagged |= deviate(Deviation::UnseenTransition, port, [s1, sym] {
        return std::string{"unseen transition "} + to_string(s1) + ">" +
               to_string(sym);
      });
    } else if (base->trigrams.count(trigram_key(s2, s1, sym)) == 0) {
      deviate(Deviation::UnseenTrigram, port, [s2, s1, sym] {
        return std::string{"unseen trigram "} + to_string(s2) + ">" +
               to_string(s1) + ">" + to_string(sym);
      });
    }
  }
  st.s2 = st.s1;
  st.s1 = sym;

  const std::int64_t bucket = loop_.now().count_nanos() / 1'000'000'000;
  if (bucket != st.bucket) {
    st.bucket = bucket;
    st.in_bucket = 0;
  }
  st.in_bucket += 1;
  if (base != nullptr) {
    const double limit =
        static_cast<double>(base->peak_rate_per_s) * kRateMultiplier +
        static_cast<double>(kRateMargin);
    if (static_cast<double>(st.in_bucket) > limit) {
      const std::uint64_t seen = st.in_bucket;
      const std::uint64_t peak = base->peak_rate_per_s;
      flagged |= deviate(Deviation::RateBreach, port, [seen, peak] {
        return "rate envelope breach: " + std::to_string(seen) +
               " events/s vs trained peak " + std::to_string(peak);
      });
    }
  }
  if (flagged && config_.veto) {
    ++counters_.vetoes;
    bump(c_vetoes_);
    return ctrl::Verdict::Block;
  }
  return ctrl::Verdict::Allow;
}

ctrl::Verdict ProfileAnomalyService::on_packet_in(const of::PacketIn& pi) {
  if (pi.in_port >= kReservedPortFloor) return ctrl::Verdict::Allow;
  const PortKey port = port_key(of::Location{pi.dpid, pi.in_port});
  const Symbol sym = classify(*pi.packet);
  ctrl::Verdict v = score(port, sym);
  if (const auto* lldp = pi.packet->lldp(); lldp != nullptr) {
    const PortKey src =
        stats::FlowStats::port_key(lldp->chassis_id(), lldp->port_id());
    if (trainer_ != nullptr) {
      trainer_->observe_lldp_src(port, src);
    } else if (const PortProfile* base = baseline(port);
               base != nullptr && base->lldp_srcs.count(src) == 0) {
      const bool alert_grade = deviate(Deviation::LldpSrc, port, [src] {
        return "LLDP from untrained source " + port_key_to_string(src);
      });
      if (alert_grade && config_.veto) {
        ++counters_.vetoes;
        bump(c_vetoes_);
        v = ctrl::Verdict::Block;
      }
    }
  }
  return v;
}

void ProfileAnomalyService::on_port_status(const of::PortStatus& ps) {
  const PortKey port = port_key(of::Location{ps.dpid, ps.port});
  score(port, ps.reason == of::PortStatus::Reason::Down ? Symbol::PortDown
                                                        : Symbol::PortUp);
}

ctrl::Verdict ProfileAnomalyService::on_lldp_observation(
    const ctrl::LldpObservation& obs) {
  // Sequence symbols come from the LLDP Packet-In itself; the completed
  // observation contributes only the round-trip duration, the
  // "lldp.rtt" envelope.
  const auto rtt = obs.received_at - obs.emitted_at;
  if (rtt.count_nanos() <= 0) return ctrl::Verdict::Allow;
  const auto ns = static_cast<std::uint64_t>(rtt.count_nanos());
  if (trainer_ != nullptr) {
    trainer_->observe_duration("lldp.rtt", ns);
    return ctrl::Verdict::Allow;
  }
  if (profile_ == nullptr) return ctrl::Verdict::Allow;
  const auto it = profile_->durations.find("lldp.rtt");
  if (it == profile_->durations.end() || it->second.count == 0) {
    return ctrl::Verdict::Allow;
  }
  const DurationEnvelope& env = it->second;
  const double limit =
      std::max(env.max_ns * kDurationMultiplier, env.p99_ns);
  if (static_cast<double>(ns) > limit) {
    const PortKey port = port_key(obs.dst);
    const bool alert_grade = deviate(Deviation::DurationOutlier, port, [ns] {
      return "lldp.rtt " + std::to_string(ns) + "ns beyond trained envelope";
    });
    if (alert_grade && config_.veto) {
      ++counters_.vetoes;
      bump(c_vetoes_);
      return ctrl::Verdict::Block;
    }
  }
  return ctrl::Verdict::Allow;
}

void ProfileAnomalyService::on_link_removed(const topo::Link& link) {
  score(port_key(link.a), Symbol::LinkRemoved);
  score(port_key(link.b), Symbol::LinkRemoved);
}

ctrl::Verdict ProfileAnomalyService::on_host_event(
    const ctrl::HostEvent& ev) {
  const PortKey port = port_key(ev.new_loc);
  return score(port, ev.kind == ctrl::HostEvent::Kind::New
                         ? Symbol::HostNew
                         : Symbol::HostMoved);
}

}  // namespace tmg::ids
