#include "of/switch.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace tmg::of {

namespace {

/// Link-integrity pulse window: carrier loss shorter than a delay
/// sampled uniformly from [kDetectMin, kDetectMax] goes unnoticed.
constexpr sim::Duration kDetectMin = sim::Duration::millis(8);
constexpr sim::Duration kDetectMax = sim::Duration::millis(24);
static_assert(kDetectMin <= kDetectMax);
/// Delay from carrier restoration to operational Port-Up.
constexpr sim::Duration kUpDetect = sim::Duration::millis(1);
/// Period of the flow-expiry sweep.
constexpr sim::Duration kExpirySweep = sim::Duration::seconds(1);
/// Dataplane forwarding latency within the switch.
constexpr sim::Duration kForwardDelay = sim::Duration::micros(10);

}  // namespace

Switch::Switch(sim::EventLoop& loop, sim::Rng rng, Dpid dpid,
               ControlChannel& channel)
    : loop_{loop}, rng_{std::move(rng)}, dpid_{dpid}, channel_{channel} {
  channel_.attach_switch([this](const CtrlToSwitch& msg) { handle_ctrl(msg); });
  loop_.post_after(kExpirySweep, [this] { sweep_expired(); });
}

const Switch::Port* Switch::find_port(PortNo no) const {
  if (no >= ports_.size() || ports_[no].link == nullptr) return nullptr;
  return &ports_[no];
}

Switch::Port* Switch::find_port(PortNo no) {
  return const_cast<Port*>(std::as_const(*this).find_port(no));
}

void Switch::attach_link(PortNo port, DataLink& link, Side side) {
  assert(port != 0 && port < kPortFlood);
  if (port >= ports_.size()) ports_.resize(std::size_t{port} + 1);
  Port& p = ports_[port];
  if (p.link != nullptr) throw std::logic_error("port already attached");
  p.link = &link;
  p.side = side;
  p.peer_carrier_up = link.carrier(other(side));
  p.oper_up = p.peer_carrier_up;
  link.attach(side,
              DataLink::Peer{
                  [this, port](const net::PacketPtr& pkt) { on_rx(port, pkt); },
                  [this, port](bool up) { on_peer_carrier(port, up); },
              });
}

bool Switch::port_oper_up(PortNo port) const {
  const Port* p = find_port(port);
  return p != nullptr && p->oper_up;
}

const PortStats& Switch::port_stats(PortNo port) const {
  const Port* p = find_port(port);
  if (p == nullptr) throw std::out_of_range("port not attached");
  return p->stats;
}

std::vector<PortNo> Switch::ports() const {
  std::vector<PortNo> out;
  for (std::size_t no = 0; no < ports_.size(); ++no) {
    if (ports_[no].link != nullptr) out.push_back(static_cast<PortNo>(no));
  }
  return out;
}

void Switch::handle_ctrl(const CtrlToSwitch& msg) {
  struct Visitor {
    Switch& sw;
    void operator()(const PacketOut& po) { sw.handle_packet_out(po); }
    void operator()(const FlowMod& fm) { sw.handle_flow_mod(fm); }
    void operator()(const EchoRequest& er) {
      sw.channel_.to_controller(EchoReply{sw.dpid(), er.token});
    }
    void operator()(const FlowStatsRequest& req) {
      FlowStatsReply reply;
      reply.dpid = sw.dpid();
      reply.xid = req.xid;
      reply.entries.reserve(sw.table_.entries().size());
      for (const auto& e : sw.table_.entries()) {
        reply.entries.push_back(
            FlowStatsEntry{e.cookie, e.match, e.packet_count, e.byte_count});
      }
      sw.channel_.to_controller(std::move(reply));
    }
    void operator()(const PortStatsRequest& req) {
      PortStatsReply reply;
      reply.dpid = sw.dpid();
      reply.xid = req.xid;
      for (std::size_t no = 0; no < sw.ports_.size(); ++no) {
        const Port& port = sw.ports_[no];
        if (port.link == nullptr) continue;
        reply.entries.push_back(PortStatsEntry{
            static_cast<PortNo>(no), port.stats.rx_packets,
            port.stats.tx_packets, port.stats.rx_bytes, port.stats.tx_bytes});
      }
      sw.channel_.to_controller(std::move(reply));
    }
  };
  std::visit(Visitor{*this}, msg);
}

void Switch::handle_packet_out(const PacketOut& po) {
  assert(po.packet);
  if (po.out_port == kPortController) {
    // Bounce straight back as Packet-In: the TOPOGUARD+ control-link RTT
    // probe (paper Sec. VI-D, "Control Link Latency").
    send_packet_in(kPortController, po.packet, PacketIn::Reason::Action);
    return;
  }
  if (po.out_port == kPortFlood) {
    flood(po.packet, po.in_port);
    return;
  }
  forward(po.packet, po.out_port);
}

void Switch::handle_flow_mod(const FlowMod& fm) {
  if (fm.command == FlowMod::Command::Add) {
    FlowEntry e;
    e.cookie = fm.cookie;
    e.match = fm.match;
    e.action = fm.action;
    e.priority = fm.priority;
    e.idle_timeout = fm.idle_timeout;
    e.hard_timeout = fm.hard_timeout;
    e.notify_on_removal = fm.notify_on_removal;
    table_.add(std::move(e), loop_.now());
    return;
  }
  for (const auto& removed : table_.remove_matching(fm.match)) {
    if (removed.notify_on_removal) {
      channel_.to_controller(FlowRemoved{dpid_, removed.cookie,
                                         FlowRemoved::Reason::Delete,
                                         removed.packet_count,
                                         removed.byte_count});
    }
  }
}

void Switch::on_rx(PortNo port, const net::PacketPtr& pkt) {
  Port* found = find_port(port);
  if (found == nullptr) return;
  Port& p = *found;
  // A port the switch considers down does not accept frames (e.g. during
  // the brief up-detect window after carrier restoration).
  if (!p.oper_up) return;
  ++p.stats.rx_packets;
  p.stats.rx_bytes += pkt->wire_size();

  // LLDP goes to the controller (Floodlight pre-installs this punt rule
  // as part of link discovery) — unless a flow entry explicitly pinned
  // to the LLDP ethertype outranks the punt, mirroring hardware
  // OpenFlow switches where the discovery punt is just another rule an
  // operator (or an attacker with Flow-Mod reach) can shadow. Benign
  // forwarding rules never pin 0x88cc, so absent such a rule this is
  // byte-identical to the unconditional punt.
  if (pkt->is_lldp()) {
    if (FlowEntry* entry = table_.lookup_lldp_override(*pkt, port,
                                                       loop_.now())) {
      apply_action(pkt, port, entry->action);
      return;
    }
    send_packet_in(port, pkt, PacketIn::Reason::Action);
    return;
  }

  if (FlowEntry* entry = table_.lookup(*pkt, port, loop_.now())) {
    apply_action(pkt, port, entry->action);
    return;
  }
  send_packet_in(port, pkt, PacketIn::Reason::TableMiss);
}

void Switch::apply_action(const net::PacketPtr& pkt, PortNo in_port,
                          const FlowAction& action) {
  switch (action.kind) {
    case FlowAction::Kind::Output:
      forward(pkt, action.out_port);
      break;
    case FlowAction::Kind::Flood:
      flood(pkt, in_port);
      break;
    case FlowAction::Kind::ToController:
      send_packet_in(in_port, pkt, PacketIn::Reason::Action);
      break;
    case FlowAction::Kind::Drop:
      break;
  }
}

void Switch::forward(const net::PacketPtr& pkt, PortNo out_port) {
  Port* p = find_port(out_port);
  if (p == nullptr || !p->oper_up) return;
  forward_shared(pkt, *p);
}

void Switch::forward_shared(net::PacketPtr pkt, Port& p) {
  ++p.stats.tx_packets;
  p.stats.tx_bytes += pkt->wire_size();
  DataLink* link = p.link;
  const Side side = p.side;
  loop_.post_after(kForwardDelay, [link, side, pkt = std::move(pkt)]() mutable {
    link->send(side, std::move(pkt));
  });
}

void Switch::flood(const net::PacketPtr& pkt, PortNo except_port) {
  // Ascending port number: the order the egress events are posted in.
  for (std::size_t no = 0; no < ports_.size(); ++no) {
    Port& p = ports_[no];
    if (p.link == nullptr || no == except_port || !p.oper_up) continue;
    forward_shared(pkt, p);
  }
}

void Switch::send_packet_in(PortNo in_port, const net::PacketPtr& pkt,
                            PacketIn::Reason reason) {
  channel_.to_controller(PacketIn{dpid_, in_port, reason, pkt});
}

void Switch::on_peer_carrier(PortNo port, bool up) {
  Port* found = find_port(port);
  if (found == nullptr) return;
  Port& p = *found;
  p.peer_carrier_up = up;
  ++p.epoch;
  const std::uint64_t epoch = p.epoch;

  if (!up && p.oper_up) {
    // Carrier lost: only a sustained loss (>= link-integrity window)
    // becomes an operational Port-Down.
    const auto delay = sim::Duration::nanos(rng_.uniform_int(
        kDetectMin.count_nanos(), kDetectMax.count_nanos()));
    loop_.post_after(delay, [this, port, epoch] {
      Port* pp_found = find_port(port);
      if (pp_found == nullptr) return;
      Port& pp = *pp_found;
      // A newer carrier change supersedes this check (fast flap).
      if (pp.epoch != epoch) return;
      if (!pp.peer_carrier_up && pp.oper_up) {
        pp.oper_up = false;
        channel_.to_controller(
            PortStatus{dpid_, port, PortStatus::Reason::Down});
      }
    });
  } else if (up && !p.oper_up) {
    loop_.post_after(kUpDetect, [this, port, epoch] {
      Port* pp_found = find_port(port);
      if (pp_found == nullptr) return;
      Port& pp = *pp_found;
      if (pp.epoch != epoch) return;
      if (pp.peer_carrier_up && !pp.oper_up) {
        pp.oper_up = true;
        channel_.to_controller(
            PortStatus{dpid_, port, PortStatus::Reason::Up});
      }
    });
  }
}

void Switch::sweep_expired() {
  for (const auto& expired : table_.expire(loop_.now())) {
    if (expired.entry.notify_on_removal) {
      channel_.to_controller(
          FlowRemoved{dpid_, expired.entry.cookie, expired.reason,
                      expired.entry.packet_count, expired.entry.byte_count});
    }
  }
  loop_.post_after(kExpirySweep, [this] { sweep_expired(); });
}

}  // namespace tmg::of
