#include "attack/port_amnesia.hpp"

#include <cassert>
#include <span>

#include "obs/observability.hpp"

namespace tmg::attack {

namespace {

/// Settle time after carrier restore before transmitting (covers the
/// switch's Port-Up detection delay).
constexpr sim::Duration kPostFlapSettle = sim::Duration::millis(2);

constexpr const char* kCovertLldpLabel = "covert-lldp";
constexpr const char* kCovertTransitLabel = "covert-transit";

// Covert in-band frames are addressed to a never-bound MAC so the
// controller delivers them by unknown-unicast flooding. Routing them to
// the peer's real MAC would collapse onto the fabricated link itself
// (the shortest "path" to the peer goes through the attackers' own
// ports) and loop.
const net::MacAddress kCovertSink{{0x02, 0xde, 0xad, 0xbe, 0xef, 0x01}};
const net::Ipv4Address kCovertSinkIp{10, 0, 254, 254};

std::uint64_t key_from_bytes(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t k = 0;
  for (std::size_t i = 0; i < 8 && i < bytes.size(); ++i) {
    k = (k << 8) | bytes[i];
  }
  return k;
}

std::vector<std::uint8_t> key_to_bytes(std::uint64_t k) {
  std::vector<std::uint8_t> out(8);
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(k >> (56 - 8 * i));
  }
  return out;
}

}  // namespace

PortAmnesiaAttack::PortAmnesiaAttack(sim::EventLoop& loop, Host& a, Host& b,
                                     OutOfBandChannel* oob, Config config)
    : loop_{loop}, config_{config}, oob_{oob} {
  assert(config_.mode == Mode::InBand || oob_ != nullptr);
  a_.host = &a;
  b_.host = &b;
  a_.peer = &b_;
  b_.peer = &a_;
}

void PortAmnesiaAttack::set_observability(obs::Observability* obs) {
  obs_ = obs;
  if (obs_ == nullptr) return;
  obs_->add_collector([this](obs::MetricsRegistry& m, sim::SimTime) {
    m.gauge("attack.lldp_relayed").set(static_cast<double>(lldp_relayed_));
    m.gauge("attack.flaps").set(static_cast<double>(flaps_));
    m.gauge("attack.covert_sends").set(static_cast<double>(covert_sends_));
    m.gauge("attack.transit_bridged")
        .set(static_cast<double>(transit_bridged_));
    m.gauge("attack.transit_dropped")
        .set(static_cast<double>(transit_dropped_));
  });
}

void PortAmnesiaAttack::start() {
  if (started_) return;
  started_ = true;
  arm(a_);
  arm(b_);
  if (config_.mode == Mode::OutOfBand && config_.preposition_flap) {
    // Reset both profiles to ANY *between* LLDP rounds, so no Port-Down
    // lands inside a propagation window (CMM-evasive).
    flap_then(a_, [] {});
    flap_then(b_, [] {});
  }
}

void PortAmnesiaAttack::arm(Endpoint& self) {
  self.host->set_packet_hook(
      [this, &self](const net::Packet& pkt) { return capture(self, pkt); });
}

bool PortAmnesiaAttack::capture(Endpoint& self, const net::Packet& pkt) {
  // LLDP broadcast from our switch: the link-fabrication raw material.
  if (pkt.is_lldp()) {
    // In one-way mode only endpoint A relays; B just swallows its LLDP.
    if (!config_.bidirectional && &self == &b_) return true;
    if (config_.mode == Mode::OutOfBand) {
      relay_lldp_oob(self, pkt);
    } else {
      relay_lldp_inband(self, pkt);
    }
    return true;
  }

  // In-band covert frames (flood-delivered; skip our own transmissions).
  if (const auto* raw = pkt.raw();
      raw != nullptr && pkt.dst_mac == kCovertSink) {
    if (pkt.src_mac == self.host->mac()) return true;  // our own echo
    if (raw->label == kCovertLldpLabel) {
      // The payload is the LLDPDU followed by an 8-byte capture stamp.
      std::span<const std::uint8_t> body{raw->bytes};
      std::optional<sim::SimTime> captured_at;
      if (body.size() > 8) {
        std::uint64_t stamp = 0;
        for (std::size_t i = body.size() - 8; i < body.size(); ++i) {
          stamp = (stamp << 8) | body[i];
        }
        captured_at =
            sim::SimTime::from_nanos(static_cast<std::int64_t>(stamp));
        body = body.first(body.size() - 8);
      }
      auto lldp = net::LldpPacket::parse(body);
      if (lldp) {
        ++lldp_relayed_;
        emit_lldp(self,
                  net::make_lldp_frame(net::MacAddress::lldp_multicast(),
                                       *lldp),
                  captured_at);
      }
      return true;
    }
    if (raw->label == kCovertTransitLabel) {
      const auto it = covert_store_.find(key_from_bytes(raw->bytes));
      if (it != covert_store_.end()) {
        net::Packet original = it->second;
        covert_store_.erase(it);
        ++transit_bridged_;
        originate_as_host(self, std::move(original));
      }
      return true;
    }
    return false;  // ordinary raw traffic for the attacker itself
  }

  // Transit over the fabricated link: anything not addressed to us.
  if (pkt.dst_mac != self.host->mac() && !pkt.dst_mac.is_broadcast() &&
      !pkt.dst_mac.is_multicast()) {
    if (config_.blackhole_transit) {
      ++transit_dropped_;
      return true;
    }
    if (config_.bridge_transit) {
      if (config_.mode == Mode::OutOfBand) {
        bridge_oob(self, pkt);
      } else {
        bridge_inband(self, pkt);
      }
      return true;
    }
  }
  return false;
}

void PortAmnesiaAttack::relay_lldp_oob(Endpoint& from, const net::Packet& pkt) {
  Endpoint* to = from.peer;
  const sim::SimTime captured_at = loop_.now();
  oob_->transfer(pkt, [this, to, captured_at](net::Packet relayed) {
    ++lldp_relayed_;
    emit_lldp(*to, std::move(relayed), captured_at);
  });
}

void PortAmnesiaAttack::relay_lldp_inband(Endpoint& from,
                                          const net::Packet& pkt) {
  const net::LldpPacket* lldp = pkt.lldp();
  if (!lldp) return;
  net::Packet covert =
      net::make_raw(from.host->mac(), from.host->ip(), kCovertSink,
                    kCovertSinkIp, kCovertLldpLabel, 128);
  auto& bytes = std::get<net::RawPayload>(covert.payload).bytes;
  bytes = lldp->serialize();
  // Append the capture timestamp (attacker-side bookkeeping so the
  // receiving script can log relay latency; 8 bytes past the LLDPDU).
  const auto captured = static_cast<std::uint64_t>(loop_.now().count_nanos());
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(captured >> (56 - 8 * i)));
  }
  ++covert_sends_;
  originate_as_host(from, std::move(covert));
}

void PortAmnesiaAttack::bridge_oob(Endpoint& from, const net::Packet& pkt) {
  Endpoint* to = from.peer;
  oob_->transfer(pkt, [this, to](net::Packet relayed) {
    ++transit_bridged_;
    // Out-of-band re-emission needs no profile dance: the port stays
    // SWITCH and the traffic is transit, not first-hop origination.
    to->host->send(std::move(relayed));
  });
}

void PortAmnesiaAttack::bridge_inband(Endpoint& from, const net::Packet& pkt) {
  const std::uint64_t key = next_covert_key_++;
  covert_store_.emplace(key, pkt);
  net::Packet covert =
      net::make_raw(from.host->mac(), from.host->ip(), kCovertSink,
                    kCovertSinkIp, kCovertTransitLabel, pkt.wire_size() + 64);
  std::get<net::RawPayload>(covert.payload).bytes = key_to_bytes(key);
  ++covert_sends_;
  originate_as_host(from, std::move(covert));
}

void PortAmnesiaAttack::originate_as_host(Endpoint& ep, net::Packet pkt) {
  if (ep.profile == Profile::Switch) {
    flap_then(ep, [this, &ep, pkt = std::move(pkt)]() mutable {
      ep.profile = Profile::Host;
      ep.host->send(std::move(pkt));
    });
    return;
  }
  ep.profile = Profile::Host;
  ep.host->send(std::move(pkt));
}

void PortAmnesiaAttack::emit_lldp(Endpoint& ep, net::Packet pkt,
                                  std::optional<sim::SimTime> captured_at) {
  const auto emit = [this, &ep, captured_at](net::Packet frame) {
    ep.profile = Profile::Switch;
    if (captured_at) {
      relay_latencies_.push_back(loop_.now() - *captured_at);
      if (obs_ != nullptr) {
        // Retroactive: the capture instant rode along with the relayed
        // LLDPDU, so the span covers the full capture -> re-emission leg.
        const obs::SpanId s =
            obs_->trace().begin_span(*captured_at, "attack", "relay");
        obs_->trace().end_span(s, loop_.now());
      }
    }
    ep.host->send(std::move(frame));
  };
  if (ep.profile == Profile::Host) {
    flap_then(ep, [emit, pkt = std::move(pkt)]() mutable {
      emit(std::move(pkt));
    });
    return;
  }
  emit(std::move(pkt));
}

void PortAmnesiaAttack::flap_then(Endpoint& ep, std::function<void()> after) {
  ep.after_flap.push_back(std::move(after));
  if (ep.flap_in_progress) return;
  ep.flap_in_progress = true;
  ++flaps_;
  obs::SpanId flap_span = 0;
  if (obs_ != nullptr) {
    flap_span = obs_->trace().begin_span(loop_.now(), "attack", "flap");
    obs_->trace().annotate(flap_span, "endpoint", &ep == &a_ ? "a" : "b");
  }
  ep.host->flap_interface(config_.flap_hold, [this, &ep, flap_span] {
    // Wait out the switch's Port-Up detection before transmitting.
    // tmglint: allow(callback-lifetime) ep aliases member a_/b_, lives as long as this
    loop_.post_after(kPostFlapSettle, [this, &ep, flap_span] {
      ep.flap_in_progress = false;
      ep.profile = Profile::Any;  // the amnesia: classification forgotten
      if (obs_ != nullptr) obs_->trace().end_span(flap_span, loop_.now());
      auto actions = std::move(ep.after_flap);
      ep.after_flap.clear();
      for (auto& action : actions) action();
    });
  });
}

}  // namespace tmg::attack
