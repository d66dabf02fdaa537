#include "defense/sphinx.hpp"

#include <algorithm>

namespace tmg::defense {

using ctrl::Alert;
using ctrl::AlertType;
using ctrl::Verdict;

namespace {
/// Absolute slack for in-flight packets (bytes).
constexpr std::uint64_t kByteSlack = 16384;
/// Two sightings of one MAC at different locations within this window
/// are a binding conflict.
constexpr sim::Duration kConflictWindow = sim::Duration::seconds(1);
}  // namespace

Sphinx::Sphinx(ctrl::Controller& ctrl, SphinxConfig config)
    : ctrl_{ctrl}, config_{config} {}

void Sphinx::start() {
  if (started_) return;
  started_ = true;
  poll_stats();
}

void Sphinx::poll_stats() {
  for (const of::Dpid dpid : ctrl_.switch_dpids()) {
    ctrl_.request_flow_stats(dpid);
    if (config_.check_link_symmetry) ctrl_.request_port_stats(dpid);
  }
  ctrl_.loop().post_after(config_.stats_poll, [this] { poll_stats(); });
}

void Sphinx::on_port_stats(const of::PortStatsReply& psr) {
  if (!config_.check_link_symmetry) return;
  for (const auto& entry : psr.entries) {
    port_stats_[of::Location{psr.dpid, entry.port}] = entry;
  }
  check_link_symmetry();
}

void Sphinx::check_link_symmetry() {
  const auto lookup = [&](of::Location loc) -> const of::PortStatsEntry* {
    const auto it = port_stats_.find(loc);
    return it == port_stats_.end() ? nullptr : &it->second;
  };
  const auto asymmetric = [&](std::uint64_t tx, std::uint64_t rx) {
    const std::uint64_t lo = std::min(tx, rx);
    const std::uint64_t hi = std::max(tx, rx);
    return hi > static_cast<std::uint64_t>(static_cast<double>(lo) *
                                           config_.tau) +
                    kByteSlack;
  };
  for (const auto& link : ctrl_.topology().links()) {
    const of::PortStatsEntry* a = lookup(link.a);
    const of::PortStatsEntry* b = lookup(link.b);
    if (!a || !b) continue;  // not all counters sampled yet
    if (asymmetric(a->tx_bytes, b->rx_bytes) ||
        asymmetric(b->tx_bytes, a->rx_bytes)) {
      ctrl_.alerts().raise(Alert{
          ctrl_.loop().now(), name(), AlertType::SphinxLinkAsymmetry,
          "link " + link.to_string() + " ingress/egress bytes diverge (" +
              std::to_string(a->tx_bytes) + "/" +
              std::to_string(b->rx_bytes) + " and " +
              std::to_string(b->tx_bytes) + "/" +
              std::to_string(a->rx_bytes) + ")",
          link.a});
    }
  }
}

Verdict Sphinx::on_packet_in(const of::PacketIn& pi,
                             std::uint32_t switch_index) {
  const net::Packet& pkt = *pi.packet;
  if (pkt.is_lldp() || pkt.src_mac.is_multicast()) return Verdict::Allow;
  const of::Location loc{pi.dpid, pi.in_port};
  const sim::SimTime now = ctrl_.loop().now();

  // Waypoint deviation: a packet of a declared unicast flow surfacing at
  // a switch that is not on the declared path.
  if (!pkt.dst_mac.is_broadcast() && !pkt.dst_mac.is_multicast()) {
    const auto fit = flows_.find(pkt.dst_mac);
    if (fit != flows_.end() && !fit->second.waypoints.empty() &&
        !fit->second.waypoints.contains(pi.dpid) &&
        ctrl_.topology().is_switch_port(switch_index, pi.in_port)) {
      ctrl_.alerts().raise(
          Alert{now, name(), AlertType::SphinxWaypointChange,
                "flow to " + pkt.dst_mac.to_string() +
                    " observed off its declared path at " + loc.to_string(),
                loc});
    }
  }

  // Identifier-binding invariant. Transit (switch-internal) ports carry
  // everyone's packets and are excluded, as in SPHINX's own
  // attachment-point inference.
  if (ctrl_.topology().is_switch_port(switch_index, pi.in_port)) {
    return Verdict::Allow;
  }

  auto it = bindings_.find(pkt.src_mac);
  if (it == bindings_.end()) {
    bindings_.emplace(pkt.src_mac, Binding{loc, now});
    return Verdict::Allow;
  }
  Binding& b = it->second;
  if (b.loc == loc) {
    b.last_seen = now;
    return Verdict::Allow;
  }
  const bool old_loc_recently_live = now - b.last_seen < kConflictWindow;
  if (old_loc_recently_live) {
    ++conflicts_;
    ctrl_.alerts().raise(
        Alert{now, name(), AlertType::SphinxIdentifierConflict,
              "MAC " + pkt.src_mac.to_string() + " live at " +
                  b.loc.to_string() + " and " + loc.to_string(),
              loc});
    if (config_.block) return Verdict::Block;
  }
  b.loc = loc;
  b.last_seen = now;
  return Verdict::Allow;
}

void Sphinx::on_flow_mod(of::Dpid dpid, const of::FlowMod& fm) {
  if (!fm.match.dst_mac) return;
  FlowGraph& fg = flows_[*fm.match.dst_mac];
  if (fm.command == of::FlowMod::Command::DeleteMatching) {
    fg.waypoints.clear();
    fg.bytes.clear();
    return;
  }
  if (fm.action.kind == of::FlowAction::Kind::Output) {
    const sim::SimTime now = ctrl_.loop().now();
    // Flow-Mods for one path install within milliseconds of each other.
    // A later batch is a re-route (the controller is trusted): start a
    // fresh flow graph, otherwise stale waypoints from the old path
    // would diverge from the live counters and raise false alarms.
    if (!fg.waypoints.empty() &&
        now - fg.last_flow_mod > sim::Duration::seconds(1)) {
      fg.waypoints.clear();
      fg.bytes.clear();
    }
    fg.waypoints[dpid] = fm.action.out_port;
    fg.last_flow_mod = now;
  }
}

void Sphinx::on_flow_stats(const of::FlowStatsReply& fsr) {
  for (const auto& entry : fsr.entries) {
    if (!entry.match.dst_mac) continue;
    const auto fit = flows_.find(*entry.match.dst_mac);
    if (fit == flows_.end()) continue;
    fit->second.bytes[fsr.dpid] = entry.byte_count;
  }
  // Check all graphs this switch participates in.
  for (const auto& [dst, fg] : flows_) {
    if (fg.bytes.contains(fsr.dpid)) check_counters(dst, fg);
  }
}

void Sphinx::check_counters(const net::MacAddress& dst, const FlowGraph& fg) {
  // All waypoints must have reported at least once.
  if (fg.waypoints.size() < 2) return;
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (const auto& [dpid, _] : fg.waypoints) {
    const auto it = fg.bytes.find(dpid);
    if (it == fg.bytes.end()) return;  // not all counters seen yet
    lo = std::min(lo, it->second);
    hi = std::max(hi, it->second);
  }
  if (hi > static_cast<std::uint64_t>(static_cast<double>(lo) * config_.tau) +
               kByteSlack) {
    ctrl_.alerts().raise(Alert{
        ctrl_.loop().now(), name(), AlertType::SphinxFlowInconsistency,
        "flow to " + dst.to_string() + " byte counters diverge along path (" +
            std::to_string(lo) + " vs " + std::to_string(hi) + ")",
        std::nullopt});
  }
}

}  // namespace tmg::defense
