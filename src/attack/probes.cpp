#include "attack/probes.hpp"

#include <cassert>

namespace tmg::attack {

namespace {
/// Idle scan only: wait for the spoofed SYN's effect on the zombie.
constexpr sim::Duration kIdleSettle = sim::Duration::millis(60);
}  // namespace

const char* to_string(ProbeType t) {
  switch (t) {
    case ProbeType::IcmpPing: return "ICMP Ping";
    case ProbeType::TcpSyn: return "TCP SYN";
    case ProbeType::ArpPing: return "ARP ping";
    case ProbeType::TcpIdleScan: return "TCP Idle Scan";
  }
  return "?";
}

Stealth stealth_of(ProbeType t) {
  switch (t) {
    case ProbeType::IcmpPing: return Stealth::Low;
    case ProbeType::TcpSyn: return Stealth::Medium;
    case ProbeType::ArpPing: return Stealth::High;
    case ProbeType::TcpIdleScan: return Stealth::VeryHigh;
  }
  return Stealth::Low;
}

const char* to_string(Stealth s) {
  switch (s) {
    case Stealth::Low: return "Low";
    case Stealth::Medium: return "Medium";
    case Stealth::High: return "High";
    case Stealth::VeryHigh: return "Very High";
  }
  return "?";
}

sim::Duration sample_tool_overhead(ProbeType t, sim::Rng& rng) {
  // Table I means and standard deviations, in milliseconds.
  double mean_ms = 0.0, sd_ms = 0.0;
  switch (t) {
    case ProbeType::IcmpPing: mean_ms = 0.91; sd_ms = 0.04; break;
    case ProbeType::TcpSyn: mean_ms = 492.3; sd_ms = 1.4; break;
    case ProbeType::ArpPing: mean_ms = 133.5; sd_ms = 1.6; break;
    case ProbeType::TcpIdleScan: mean_ms = 1.8; sd_ms = 0.1; break;
  }
  const double ms = rng.normal(mean_ms, sd_ms);
  return sim::Duration::from_millis_f(ms < 0.0 ? 0.0 : ms);
}

LivenessProber::LivenessProber(sim::EventLoop& loop, sim::Rng rng,
                               Host& attacker, Config config)
    : loop_{loop}, rng_{std::move(rng)}, host_{attacker}, config_{config} {
  host_.add_listener([this](const net::Packet& pkt) {
    if (!done_) return;
    switch (config_.type) {
      case ProbeType::IcmpPing: {
        const auto* icmp = pkt.icmp();
        if (icmp && icmp->type == net::IcmpPayload::Type::EchoReply &&
            icmp->ident == probe_ident_ && pkt.ip &&
            pkt.ip->src == target_.ip) {
          finish(true);
        }
        break;
      }
      case ProbeType::TcpSyn: {
        const auto* tcp = pkt.tcp();
        if (tcp && tcp->dst_port == probe_port_ && pkt.ip &&
            pkt.ip->src == target_.ip &&
            ((tcp->flags.syn && tcp->flags.ack) || tcp->flags.rst)) {
          finish(true);
        }
        break;
      }
      case ProbeType::ArpPing: {
        const auto* arp = pkt.arp();
        if (arp && arp->op == net::ArpPayload::Op::Reply &&
            arp->sender_ip == target_.ip) {
          finish(true);
        }
        break;
      }
      case ProbeType::TcpIdleScan: {
        const auto* tcp = pkt.tcp();
        if (!tcp || !tcp->flags.rst || !pkt.ip || !config_.zombie ||
            pkt.ip->src != config_.zombie->ip ||
            tcp->dst_port != probe_port_) {
          break;
        }
        const std::uint16_t ipid = pkt.ip->ident;
        if (idle_phase_ == 1) {
          zombie_ipid_before_ = ipid;
          idle_phase_ = 2;
          timeout_.cancel();
          // Spoof a SYN claiming the zombie's *IP* (the MAC stays ours:
          // an IP-level spoof, as nmap -S does). A live target SYN-ACKs
          // the zombie, whose RST advances its IP-ID.
          host_.send(net::make_tcp(host_.mac(), config_.zombie->ip,
                                   target_.mac, target_.ip, 40001,
                                   target_.tcp_port,
                                   net::TcpFlags{.syn = true}));
          loop_.post_after(kIdleSettle, [this] {
            if (!done_ || idle_phase_ != 2) return;
            idle_phase_ = 3;
            probe_port_ = next_port_++;
            host_.send(net::make_tcp(host_.mac(), host_.ip(),
                                     config_.zombie->mac, config_.zombie->ip,
                                     probe_port_, 80,
                                     net::TcpFlags{.syn = true, .ack = true}));
            arm_timeout();
          });
        } else if (idle_phase_ == 3) {
          // IP-ID advanced by >= 2: the zombie RST'd a SYN-ACK the
          // (live) target sent it in between.
          const std::uint16_t delta =
              static_cast<std::uint16_t>(ipid - zombie_ipid_before_);
          finish(delta >= 2);
        }
        break;
      }
    }
  });
}

void LivenessProber::probe(const ProbeTarget& target,
                           std::function<void(ProbeOutcome)> done) {
  assert(!done_ && "probe already in flight");
  done_ = std::move(done);
  target_ = target;
  started_ = loop_.now();
  ++sent_;
  if (config_.tool_overhead) {
    const sim::Duration overhead = sample_tool_overhead(config_.type, rng_);
    loop_.post_after(overhead,
                         [this, target] { start_exchange(target); });
  } else {
    start_exchange(target);
  }
}

void LivenessProber::start_exchange(const ProbeTarget& target) {
  if (!done_) return;
  switch (config_.type) {
    case ProbeType::IcmpPing: run_icmp(target); break;
    case ProbeType::TcpSyn: run_tcp_syn(target); break;
    case ProbeType::ArpPing: run_arp(target); break;
    case ProbeType::TcpIdleScan: run_idle_scan(target); break;
  }
}

void LivenessProber::run_icmp(const ProbeTarget& target) {
  probe_ident_ = next_ident_++;
  host_.send_ping(target.mac, target.ip, probe_ident_, 1);
  arm_timeout();
}

void LivenessProber::run_tcp_syn(const ProbeTarget& target) {
  probe_port_ = next_port_++;
  host_.send(net::make_tcp(host_.mac(), host_.ip(), target.mac, target.ip,
                           probe_port_, target.tcp_port,
                           net::TcpFlags{.syn = true}));
  arm_timeout();
}

void LivenessProber::run_arp(const ProbeTarget& target) {
  host_.send_arp_request(target.ip);
  arm_timeout();
}

void LivenessProber::run_idle_scan(const ProbeTarget& target) {
  (void)target;  // reached through target_; kept for interface symmetry
  assert(config_.zombie && "idle scan requires a zombie");
  idle_phase_ = 1;
  probe_port_ = next_port_++;
  // Query the zombie's current IP-ID with an unsolicited SYN-ACK.
  host_.send(net::make_tcp(host_.mac(), host_.ip(), config_.zombie->mac,
                           config_.zombie->ip, probe_port_, 80,
                           net::TcpFlags{.syn = true, .ack = true}));
  arm_timeout();
}

void LivenessProber::arm_timeout() {
  timeout_ = loop_.schedule_after(config_.timeout, [this] { finish(false); });
}

void LivenessProber::finish(bool alive) {
  if (!done_) return;
  timeout_.cancel();
  idle_phase_ = 0;
  auto done = std::move(done_);
  done_ = nullptr;
  done(ProbeOutcome{alive, started_, loop_.now()});
}

}  // namespace tmg::attack
