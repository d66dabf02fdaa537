#include "ctrl/routing.hpp"

#include <algorithm>

#include "check/assert.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/host_tracker.hpp"

namespace tmg::ctrl {

namespace {
constexpr std::size_t kDedupCapacity = 65536;
/// Idle timeout given to installed flow rules.
constexpr sim::Duration kFlowIdleTimeout = sim::Duration::seconds(5);
}  // namespace

RoutingService::RoutingService(Controller& ctrl)
    : ctrl_{ctrl},
      path_cache_{ctrl.topology()},
      flooded_{kDedupCapacity},
      routed_{kDedupCapacity} {}

std::string RoutingService::name() const { return kRoutingServiceName; }

std::uint32_t RoutingService::subscriptions() const {
  return mask_of(MessageType::PacketIn);
}

Disposition RoutingService::on_message(const PipelineMessage& msg,
                                       DispatchContext&) {
  handle_packet_in(*msg.packet_in, msg.switch_index);
  return Disposition::Continue;
}

void RoutingService::handle_packet_in(const of::PacketIn& pi,
                                      std::uint32_t switch_index) {
  const net::Packet& pkt = *pi.packet;

  // Bridge-filtered group addresses (EAPOL, STP, ...) are link-local:
  // consumed at the controller, never forwarded.
  if (pkt.dst_mac.is_link_local_group()) return;

  if (pkt.dst_mac.is_broadcast() || pkt.dst_mac.is_multicast()) {
    flood(pi, switch_index);
    return;
  }

  const auto dst = ctrl_.host_tracker().find(pkt.dst_mac);
  if (!dst) {
    flood(pi, switch_index);
    return;
  }

  if (routed_.contains(pkt.trace_id)) {
    // The packet outran its Flow-Mods (control-channel race): forward it
    // statelessly along the already-computed direction.
    const auto path = path_cache_.path(pi.dpid, dst->loc.dpid);
    if (path && !path->empty()) {
      ctrl_.send_packet_out(pi.dpid, path->front().from.port, pi.packet);
    } else if (pi.dpid == dst->loc.dpid) {
      ctrl_.send_packet_out(pi.dpid, dst->loc.port, pi.packet);
    }
    return;
  }

  if (!route(pi, dst->loc)) flood(pi, switch_index);
}

bool RoutingService::route(const of::PacketIn& pi, const of::Location& dst) {
  const net::Packet& pkt = *pi.packet;
  of::FlowMatch match;
  match.dst_mac = pkt.dst_mac;

  const auto make_mod = [&](of::FlowAction action) {
    of::FlowMod fm;
    fm.command = of::FlowMod::Command::Add;
    fm.cookie = next_cookie_++;
    fm.match = match;
    fm.action = action;
    fm.idle_timeout = kFlowIdleTimeout;
    return fm;
  };

  if (pi.dpid == dst.dpid) {
    ctrl_.send_flow_mod(pi.dpid, make_mod(of::FlowAction::output(dst.port)));
    ctrl_.send_packet_out(pi.dpid, dst.port, pi.packet);
    routed_.push(pkt.trace_id);
    ++paths_;
    return true;
  }

  const auto path = path_cache_.path(pi.dpid, dst.dpid);
  if (!path || path->empty()) return false;

  // Install from the destination backwards (Floodlight's order, to
  // minimize in-flight misses), then release the packet at the ingress.
  ctrl_.send_flow_mod(dst.dpid, make_mod(of::FlowAction::output(dst.port)));
  for (auto it = path->rbegin(); it != path->rend(); ++it) {
    ctrl_.send_flow_mod(it->from.dpid,
                        make_mod(of::FlowAction::output(it->from.port)));
  }
  ctrl_.send_packet_out(pi.dpid, path->front().from.port, pi.packet);
  routed_.push(pkt.trace_id);
  ++paths_;
  return true;
}

void RoutingService::flood(const of::PacketIn& pi,
                           std::uint32_t switch_index) {
  if (switch_index / 64 >= flood_words_) {
    TMG_ASSERT(switch_index < ctrl_.topology().switch_count(),
               "RoutingService::flood: Packet-In without a switch index");
    widen_flood_slots((ctrl_.topology().switch_count() + 63) / 64);
  }
  const std::uint64_t id = pi.packet->trace_id;
  std::size_t slot = flooded_.find(id);
  if (slot == DedupRing::npos) {
    slot = flooded_.push(id);
    const std::size_t end = (slot + 1) * flood_words_;
    if (end > flood_bits_.size()) flood_bits_.resize(end);
    // Reuse the evicted id's words.
    std::fill_n(flood_bits_.begin() + static_cast<std::ptrdiff_t>(
                                          slot * flood_words_),
                flood_words_, std::uint64_t{0});
    ++floods_;
  }
  // Storm suppression: each switch forwards a given packet once. The
  // flood then propagates hop-by-hop over real links, paying real
  // dataplane latency (copies arriving at already-flooded switches die
  // here).
  std::uint64_t& word = flood_bits_[slot * flood_words_ + switch_index / 64];
  const std::uint64_t bit = std::uint64_t{1} << (switch_index % 64);
  if ((word & bit) != 0) return;
  word |= bit;
  ctrl_.send_packet_out(pi.dpid, of::kPortFlood, pi.packet, pi.in_port);
}

void RoutingService::widen_flood_slots(std::size_t words) {
  const std::size_t slots =
      flood_words_ == 0 ? 0 : flood_bits_.size() / flood_words_;
  std::vector<std::uint64_t> wider(slots * words, 0);
  for (std::size_t s = 0; s < slots; ++s) {
    std::copy_n(flood_bits_.begin() +
                    static_cast<std::ptrdiff_t>(s * flood_words_),
                flood_words_,
                wider.begin() + static_cast<std::ptrdiff_t>(s * words));
  }
  flood_bits_ = std::move(wider);
  flood_words_ = words;
}

void RoutingService::on_host_moved(const HostEvent& ev) {
  // Purge stale delivery rules so traffic for this MAC re-routes through
  // the new binding on the next packet.
  of::FlowMatch match;
  match.dst_mac = ev.mac;
  for (const of::Dpid dpid : ctrl_.switch_dpids()) {
    of::FlowMod fm;
    fm.command = of::FlowMod::Command::DeleteMatching;
    fm.match = match;
    ctrl_.send_flow_mod(dpid, fm);
  }
}

}  // namespace tmg::ctrl
