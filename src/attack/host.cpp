#include "attack/host.hpp"

#include <cassert>
#include <utility>

namespace tmg::attack {

namespace {
/// Host-stack processing delay before an auto-response.
constexpr sim::Duration kReplyDelay = sim::Duration::micros(100);
/// How long a packet may wait on ARP resolution before being dropped.
constexpr sim::Duration kResolveTimeout = sim::Duration::seconds(1);
/// Delay from link-up to the authentication exchange.
constexpr sim::Duration kAuthDelay = sim::Duration::millis(5);
}  // namespace

Host::Host(sim::EventLoop& loop, sim::Rng rng, HostConfig config)
    : loop_{loop}, rng_{std::move(rng)}, config_{std::move(config)} {}

void Host::attach_link(of::DataLink& link, of::Side side) {
  link_ = &link;
  side_ = side;
  link.attach(side, of::DataLink::Peer{
                        [this](const net::PacketPtr& pkt) { on_rx(*pkt); },
                        // Hosts do not act on the switch's carrier.
                        [](bool) {},
                    });
  link.set_carrier(side, up_);
  if (up_) maybe_authenticate();
}

void Host::maybe_authenticate() {
  if (config_.auth_token == 0) return;
  loop_.post_after(kAuthDelay, [this] {
    if (!up_ || !link_) return;
    send(net::make_auth_frame(config_.mac, config_.ip, config_.auth_token));
  });
}

void Host::detach_link() {
  if (!link_) return;
  link_->set_carrier(side_, false);
  link_->attach(side_, of::DataLink::Peer{});
  link_ = nullptr;
}

void Host::add_listener(PacketListener listener) {
  listeners_.push_back(std::move(listener));
}

void Host::set_identity(net::MacAddress mac, net::Ipv4Address ip) {
  config_.mac = mac;
  config_.ip = ip;
}

void Host::change_identity_timed(net::MacAddress mac, net::Ipv4Address ip,
                                 const NicOpModel& model,
                                 std::function<void()> done) {
  set_interface(false);
  const sim::Duration latency = model.sample(rng_);
  loop_.post_after(latency,
                       [this, mac, ip, done = std::move(done)]() {
                         set_identity(mac, ip);
                         set_interface(true);
                         if (done) done();
                       });
}

void Host::set_interface(bool up) {
  if (up_ == up) return;
  up_ = up;
  if (link_) link_->set_carrier(side_, up);
  if (up) maybe_authenticate();
}

void Host::flap_interface(sim::Duration hold, std::function<void()> done) {
  set_interface(false);
  loop_.post_after(hold, [this, done = std::move(done)]() {
    set_interface(true);
    if (done) done();
  });
}

void Host::send(net::Packet pkt) {
  if (!up_ || !link_) return;
  ++tx_;
  if (pkt.ip) {
    pkt.ip->ident = ip_id_++;
  }
  link_->send(side_, std::move(pkt));
}

void Host::send_arp_request(net::Ipv4Address target) {
  send(net::make_arp_request(config_.mac, config_.ip, target));
}

void Host::send_ping(net::MacAddress dst_mac, net::Ipv4Address dst_ip,
                     std::uint16_t ident, std::uint16_t seq) {
  send(net::make_icmp_echo(config_.mac, config_.ip, dst_mac, dst_ip, ident,
                           seq));
}

void Host::send_raw(net::MacAddress dst_mac, net::Ipv4Address dst_ip,
                    std::string label, std::size_t size) {
  send(net::make_raw(config_.mac, config_.ip, dst_mac, dst_ip,
                     std::move(label), size));
}

void Host::reply_later(net::Packet pkt) {
  loop_.post_after(kReplyDelay, [this, pkt = std::move(pkt)]() mutable {
    send(std::move(pkt));
  });
}

void Host::reply_later_resolved(net::Ipv4Address dst_ip, net::Packet pkt) {
  loop_.post_after(kReplyDelay, [this, dst_ip, pkt = std::move(pkt)]() mutable {
    send_resolved(dst_ip, std::move(pkt));
  });
}

std::optional<net::MacAddress> Host::arp_lookup(net::Ipv4Address ip) const {
  const auto it = arp_cache_.find(ip);
  if (it == arp_cache_.end()) return std::nullopt;
  return it->second;
}

void Host::send_resolved(net::Ipv4Address dst_ip, net::Packet pkt) {
  if (const auto mac = arp_lookup(dst_ip)) {
    pkt.dst_mac = *mac;
    send(std::move(pkt));
    return;
  }
  auto [it, inserted] = pending_arp_.try_emplace(dst_ip);
  it->second.queue.push_back(std::move(pkt));
  if (!inserted) return;  // resolution already in flight
  send_arp_request(dst_ip);
  it->second.timeout =
      loop_.schedule_after(kResolveTimeout, [this, dst_ip] {
        pending_arp_.erase(dst_ip);  // unresolved: drop the queue
      });
}

void Host::learn_arp(const net::ArpPayload& arp) {
  if (arp.sender_mac.is_multicast()) return;
  if (arp.sender_ip == net::Ipv4Address::any()) return;
  arp_cache_[arp.sender_ip] = arp.sender_mac;
  flush_pending(arp.sender_ip, arp.sender_mac);
}

void Host::flush_pending(net::Ipv4Address ip, net::MacAddress mac) {
  const auto it = pending_arp_.find(ip);
  if (it == pending_arp_.end()) return;
  it->second.timeout.cancel();
  std::vector<net::Packet> queue = std::move(it->second.queue);
  pending_arp_.erase(it);
  for (auto& pkt : queue) {
    pkt.dst_mac = mac;
    send(std::move(pkt));
  }
}

void Host::on_rx(const net::Packet& pkt) {
  if (!up_) return;
  ++rx_;
  if (hook_ && hook_(pkt)) return;
  for (const auto& l : listeners_) l(pkt);
  auto_respond(pkt);
}

void Host::auto_respond(const net::Packet& pkt) {
  // ARP: learn the sender mapping (the only trusted source of IP->MAC
  // bindings), and answer requests for our IP.
  if (const auto* arp = pkt.arp()) {
    learn_arp(*arp);
    if (arp->op == net::ArpPayload::Op::Request &&
        arp->target_ip == config_.ip) {
      reply_later(net::make_arp_reply(config_.mac, config_.ip,
                                      arp->sender_mac, arp->sender_ip));
    }
    return;
  }

  // ICMP echo request to our IP -> echo reply, resolved via ARP (not
  // via the frame's source MAC — an IP-spoofed probe must elicit a
  // reply toward the *claimed* source, which is what the TCP idle scan
  // depends on).
  if (const auto* icmp = pkt.icmp()) {
    if (icmp->type == net::IcmpPayload::Type::EchoRequest && pkt.ip &&
        pkt.ip->dst == config_.ip) {
      reply_later_resolved(
          pkt.ip->src,
          net::make_icmp_echo(config_.mac, config_.ip, pkt.src_mac,
                              pkt.ip->src, icmp->ident, icmp->seq,
                              /*reply=*/true));
    }
    return;
  }

  // TCP.
  if (const auto* tcp = pkt.tcp()) {
    if (!pkt.ip || pkt.ip->dst != config_.ip) return;
    if (tcp->flags.syn && !tcp->flags.ack) {
      // Inbound connection attempt: a listening port answers SYN-ACK,
      // a closed one RST.
      const net::TcpFlags flags =
          config_.open_tcp_ports.contains(tcp->dst_port)
              ? net::TcpFlags{.syn = true, .ack = true}
              : net::TcpFlags{.rst = true};
      reply_later_resolved(
          pkt.ip->src,
          net::make_tcp(config_.mac, config_.ip, pkt.src_mac, pkt.ip->src,
                        tcp->dst_port, tcp->src_port, flags));
      return;
    }
    if (tcp->flags.syn && tcp->flags.ack) {
      // Unsolicited SYN-ACK: a compliant stack answers RST. This is the
      // idle-scan zombie behavior (its IP-ID increments on the RST).
      if (config_.idle_scan_zombie) {
        reply_later_resolved(
            pkt.ip->src,
            net::make_tcp(config_.mac, config_.ip, pkt.src_mac, pkt.ip->src,
                          tcp->dst_port, tcp->src_port,
                          net::TcpFlags{.rst = true}));
      }
      return;
    }
    return;
  }
}

}  // namespace tmg::attack
