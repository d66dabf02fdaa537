#include "ctrl/host_tracker.hpp"

#include "ctrl/controller.hpp"
#include "ctrl/routing.hpp"

namespace tmg::ctrl {

namespace {
/// How long a probe-before-move reachability probe waits before the old
/// attachment point is declared vacated (ProbeBeforeMove only).
constexpr sim::Duration kMigrationProbeTimeout = sim::Duration::millis(300);
}  // namespace

HostTrackingService::HostTrackingService(Controller& ctrl) : ctrl_{ctrl} {}

std::string HostTrackingService::name() const {
  return kHostTrackingServiceName;
}

std::uint32_t HostTrackingService::subscriptions() const {
  return mask_of(MessageType::PacketIn);
}

Disposition HostTrackingService::on_message(const PipelineMessage& msg,
                                            DispatchContext&) {
  handle_packet_in(*msg.packet_in, msg.switch_index);
  return Disposition::Continue;
}

net::Ipv4Address HostTrackingService::source_ip_of(const net::Packet& pkt) {
  if (const auto* arp = pkt.arp()) return arp->sender_ip;
  if (pkt.ip) return pkt.ip->src;
  return net::Ipv4Address::any();
}

void HostTrackingService::handle_packet_in(const of::PacketIn& pi,
                                           std::uint32_t switch_index) {
  const net::Packet& pkt = *pi.packet;
  if (pkt.is_lldp()) return;
  if (pkt.src_mac.is_multicast()) return;
  // Traffic on switch-internal ports is transit, not first-hop: it never
  // (re)binds a host. Floodlight's DeviceManager does the same.
  if (ctrl_.topology().is_switch_port(switch_index, pi.in_port)) return;
  const of::Location loc{pi.dpid, pi.in_port};

  const sim::SimTime now = ctrl_.loop().now();
  const net::Ipv4Address src_ip = source_ip_of(pkt);

  HostRecord* existing = hosts_.find(pkt.src_mac);
  if (existing == nullptr) {
    HostEvent ev;
    ev.kind = HostEvent::Kind::New;
    ev.mac = pkt.src_mac;
    ev.ip = src_ip;
    ev.new_loc = loc;
    if (ctrl_.notify_host_event(ev) == Verdict::Block) {
      ++blocked_;
      if (ctrl_.observability() != nullptr) {
        ctrl_.trace_event(EventKind::HostBlocked, pkt.src_mac.to_string(), loc);
      }
      return;
    }
    hosts_.insert(HostRecord{pkt.src_mac, src_ip, loc, now, now});
    if (ctrl_.observability() != nullptr) {
      ctrl_.trace_event(EventKind::HostNew,
                        pkt.src_mac.to_string() + " / " + src_ip.to_string(),
                        loc);
    }
    return;
  }

  HostRecord& rec = *existing;
  if (rec.loc == loc) {
    rec.last_seen = now;
    if (src_ip != net::Ipv4Address::any()) rec.ip = src_ip;
    return;
  }

  // Location change: a migration (legitimate or hijack — the controller
  // cannot tell; that ambiguity is the attack surface).
  const net::Ipv4Address move_ip =
      src_ip != net::Ipv4Address::any() ? src_ip : rec.ip;

  if (ctrl_.config().profile.migration == MigrationPolicy::ProbeBeforeMove) {
    // ONOS semantics: verify the old attachment point before rebinding.
    // One probe per MAC is in flight at a time; further sightings at
    // the contested location are dropped until the probe resolves.
    if (pending_moves_.count(pkt.src_mac) != 0) return;
    pending_moves_.emplace(pkt.src_mac, PendingMove{rec.loc, loc, move_ip});
    const net::MacAddress mac = pkt.src_mac;
    ctrl_.probe_reachability(
        rec.loc, pkt.src_mac, rec.ip, kMigrationProbeTimeout,
        [this, mac](bool reachable) { finish_move(mac, reachable); });
    return;
  }

  commit_move(rec, loc, move_ip);
}

void HostTrackingService::finish_move(net::MacAddress mac,
                                      bool old_loc_reachable) {
  const auto it = pending_moves_.find(mac);
  if (it == pending_moves_.end()) return;
  const PendingMove pending = it->second;
  pending_moves_.erase(it);
  HostRecord* rec = hosts_.find(mac);
  // The binding may have vanished or rebound while the probe was in
  // flight; a verdict about a stale old location is meaningless.
  if (rec == nullptr || !(rec->loc == pending.old_loc)) return;
  if (old_loc_reachable) {
    // The original attachment point still answers: whoever claimed the
    // identity elsewhere does not get the binding (blocks the naive
    // pre-claim hijack while the victim is alive).
    ++moves_rejected_;
    if (ctrl_.observability() != nullptr) {
      ctrl_.trace_event(EventKind::HostMoveRejected,
                        mac.to_string() + " " + pending.old_loc.to_string() +
                            " -/-> " + pending.new_loc.to_string(),
                        pending.new_loc);
    }
    return;
  }
  commit_move(*rec, pending.new_loc, pending.ip);
}

void HostTrackingService::commit_move(HostRecord& rec, of::Location new_loc,
                                      net::Ipv4Address ip) {
  const sim::SimTime now = ctrl_.loop().now();
  HostEvent ev;
  ev.kind = HostEvent::Kind::Moved;
  ev.mac = rec.mac;
  ev.ip = ip;
  ev.old_loc = rec.loc;
  ev.new_loc = new_loc;
  ev.old_last_seen = rec.last_seen;
  if (ctrl_.notify_host_event(ev) == Verdict::Block) {
    ++blocked_;
    if (ctrl_.observability() != nullptr) {
      ctrl_.trace_event(EventKind::HostBlocked, rec.mac.to_string(), new_loc);
    }
    return;
  }
  if (ctrl_.observability() != nullptr) {
    ctrl_.trace_event(EventKind::HostMoved,
                      rec.mac.to_string() + " " + rec.loc.to_string() + " -> " +
                          new_loc.to_string(),
                      new_loc);
  }
  rec.loc = new_loc;
  rec.last_seen = now;
  if (ip != net::Ipv4Address::any()) rec.ip = ip;
  ++migrations_;
  ctrl_.routing().on_host_moved(ev);
}

std::optional<HostRecord> HostTrackingService::find(
    net::MacAddress mac) const {
  const HostRecord* rec = hosts_.find(mac);
  if (rec == nullptr) return std::nullopt;
  return *rec;
}

std::optional<HostRecord> HostTrackingService::find_by_ip(
    net::Ipv4Address ip) const {
  // Several records can claim one IP mid-attack (ARP spoofing, HLH).
  // Resolve to the freshest binding, tie-broken by MAC, so the answer
  // never depends on the table's physical (hash) order — the fold below
  // is an order-free maximum.
  std::optional<HostRecord> best;
  hosts_.for_each([&](const HostRecord& rec) {
    if (rec.ip != ip) return;
    if (!best || rec.last_seen > best->last_seen ||
        (rec.last_seen == best->last_seen && rec.mac < best->mac)) {
      best = rec;
    }
  });
  return best;
}

}  // namespace tmg::ctrl
