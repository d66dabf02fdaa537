#include "defense/active_probe.hpp"

#include <algorithm>
#include <memory>

namespace tmg::defense {

using ctrl::Alert;
using ctrl::AlertType;
using ctrl::Verdict;

namespace {

constexpr const char* kProbeLabel = "link-verify";
/// Gap between successive probes.
constexpr sim::Duration kProbeGap = sim::Duration::millis(50);

const net::MacAddress kProbeDstMac{{0x02, 0xc0, 0xff, 0xee, 0x00, 0x02}};

std::uint64_t nonce_of(const net::RawPayload& raw) {
  std::uint64_t n = 0;
  for (std::uint8_t b : raw.bytes) n = (n << 8) | b;
  return n;
}

}  // namespace

ActiveLinkVerifier::ActiveLinkVerifier(ctrl::Controller& ctrl,
                                       ActiveProbeConfig config)
    : ctrl_{ctrl}, config_{config} {}

std::optional<ActiveLinkVerifier::State> ActiveLinkVerifier::state_of(
    const topo::Link& link) const {
  const auto it = links_.find(link);
  if (it == links_.end()) return std::nullopt;
  return it->second.state;
}

Verdict ActiveLinkVerifier::on_lldp_observation(
    const ctrl::LldpObservation& obs) {
  const topo::Link link{obs.src, obs.dst};
  auto it = links_.find(link);
  if (it == links_.end()) {
    begin(link, obs.src, obs.dst);
    return Verdict::Block;  // held until challenged successfully
  }
  Verification& v = it->second;
  switch (v.state) {
    case State::Verified:
      return Verdict::Allow;
    case State::Probing:
      return Verdict::Block;
    case State::Failed:
      if (ctrl_.loop().now() - v.last_transition > config_.retry_cooldown) {
        links_.erase(it);
        begin(link, obs.src, obs.dst);
      }
      return Verdict::Block;
  }
  return Verdict::Block;
}

void ActiveLinkVerifier::begin(const topo::Link& link, of::Location src,
                               of::Location dst) {
  Verification v;
  v.src = src;
  v.dst = dst;
  v.last_transition = ctrl_.loop().now();
  links_.emplace(link, std::move(v));
  send_probe(link);
}

void ActiveLinkVerifier::send_probe(const topo::Link& link) {
  auto it = links_.find(link);
  if (it == links_.end() || it->second.state != State::Probing) return;
  Verification& v = it->second;
  if (v.sent >= config_.probes) return;
  ++v.sent;
  ++probes_sent_;

  const std::uint64_t nonce = next_nonce_++;
  net::Packet probe = net::make_raw(ctrl_.mac(), ctrl_.ip(), kProbeDstMac,
                                    net::Ipv4Address::any(), kProbeLabel, 64);
  auto& bytes = std::get<net::RawPayload>(probe.payload).bytes;
  bytes.resize(8);
  for (int i = 0; i < 8; ++i) {
    bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(nonce >> (56 - 8 * i));
  }
  v.outstanding.emplace(nonce, ctrl_.loop().now());
  ctrl_.send_packet_out(v.src.dpid, v.src.port, std::move(probe));

  // Loss detection.
  ctrl_.loop().post_after(config_.probe_timeout, [this, link, nonce] {
    auto vit = links_.find(link);
    if (vit == links_.end() || vit->second.state != State::Probing) return;
    if (vit->second.outstanding.erase(nonce) > 0) {
      conclude(link, vit->second, false, "challenge probe lost");
    }
  });
  // Next probe.
  if (v.sent < config_.probes) {
    ctrl_.loop().post_after(kProbeGap, [this, link] { send_probe(link); });
  }
}

Verdict ActiveLinkVerifier::on_packet_in(const of::PacketIn& pi,
                                         std::uint32_t /*switch_index*/) {
  const auto* raw = pi.packet->raw();
  if (!raw || raw->label != kProbeLabel) return Verdict::Allow;

  // Probe frames are controller-internal: always consumed.
  const std::uint64_t nonce = nonce_of(*raw);
  const of::Location at{pi.dpid, pi.in_port};
  for (auto& [link, v] : links_) {
    if (v.state != State::Probing) continue;
    const auto out = v.outstanding.find(nonce);
    if (out == v.outstanding.end()) continue;
    if (at != v.dst) {
      // Probe surfaced somewhere other than the advertised far end: the
      // claimed link does not exist as described.
      v.outstanding.erase(out);
      conclude(link, v, false,
               "challenge probe surfaced at " + at.to_string() +
                   " instead of " + v.dst.to_string());
      return Verdict::Block;
    }
    const double rtt_ms = (ctrl_.loop().now() - out->second).to_millis_f() -
                          // subtract the control legs (out + in), as LLI does
                          ctrl_.control_rtt(v.src.dpid)
                              .value_or(sim::Duration::zero())
                              .to_millis_f() / 2.0 -
                          ctrl_.control_rtt(v.dst.dpid)
                              .value_or(sim::Duration::zero())
                              .to_millis_f() / 2.0;
    v.outstanding.erase(out);
    v.rtts_ms.push_back(rtt_ms);
    if (static_cast<int>(v.rtts_ms.size()) == config_.probes) {
      // Judge on the fastest sample: micro-bursts can slow individual
      // probes, but a relay cannot make any probe beat its channel.
      const double best =
          *std::min_element(v.rtts_ms.begin(), v.rtts_ms.end());
      if (best <= config_.max_link_latency.to_millis_f()) {
        conclude(link, v, true, "");
      } else {
        conclude(link, v, false,
                 "fastest challenge probe took " + std::to_string(best) +
                     " ms (bound " +
                     std::to_string(config_.max_link_latency.to_millis_f()) +
                     " ms)");
      }
    }
    return Verdict::Block;
  }
  return Verdict::Block;  // stale/unknown probe: still ours, consume
}

void ActiveLinkVerifier::conclude(const topo::Link& link, Verification& v,
                                  bool ok, const std::string& why) {
  v.last_transition = ctrl_.loop().now();
  if (ok) {
    v.state = State::Verified;
    ++verified_;
    return;
  }
  v.state = State::Failed;
  v.outstanding.clear();
  ++failed_;
  ctrl_.alerts().raise(Alert{ctrl_.loop().now(), name(),
                             AlertType::ActiveProbeViolation,
                             "link " + link.to_string() +
                                 " failed active verification: " + why,
                             v.dst});
}

void ActiveLinkVerifier::on_port_status(const of::PortStatus& ps) {
  if (ps.reason != of::PortStatus::Reason::Down) return;
  const of::Location loc{ps.dpid, ps.port};
  // An endpoint went down: any verification state for its links is
  // stale (the physical situation may have changed entirely).
  auto it = links_.begin();
  while (it != links_.end()) {
    if (it->first.a == loc || it->first.b == loc) {
      it = links_.erase(it);
    } else {
      ++it;
    }
  }
}

ActiveLinkVerifier& install_active_probe(ctrl::Controller& ctrl,
                                         ActiveProbeConfig config) {
  auto module = std::make_unique<ActiveLinkVerifier>(ctrl, config);
  ActiveLinkVerifier& ref = *module;
  ctrl.add_defense(std::move(module));
  return ref;
}

}  // namespace tmg::defense
