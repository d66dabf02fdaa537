#include "net/packet.hpp"

#include <cstdio>

namespace tmg::net {

namespace {
thread_local std::uint64_t g_next_trace_id = 1;
}  // namespace

std::uint64_t next_trace_id() { return g_next_trace_id++; }

void reset_trace_ids(std::uint64_t next) { g_next_trace_id = next; }

std::string TcpFlags::to_string() const {
  std::string s;
  if (syn) s += 'S';
  if (ack) s += 'A';
  if (rst) s += 'R';
  if (fin) s += 'F';
  return s.empty() ? "-" : s;
}

std::size_t Packet::wire_size() const {
  constexpr std::size_t kEthHeader = 14;
  constexpr std::size_t kIpHeader = 20;
  std::size_t sz = kEthHeader;
  if (ip) sz += kIpHeader;
  struct Visitor {
    std::size_t operator()(std::monostate) const { return 0; }
    std::size_t operator()(const ArpPayload&) const { return 28; }
    std::size_t operator()(const IcmpPayload&) const { return 8; }
    std::size_t operator()(const TcpPayload& t) const {
      return 20 + t.data_len;
    }
    std::size_t operator()(const LldpPacket& l) const {
      return l.serialized_size();
    }
    std::size_t operator()(const RawPayload& r) const { return r.size; }
  };
  sz += std::visit(Visitor{}, payload);
  return sz < 64 ? 64 : sz;  // Ethernet minimum frame
}

std::string Packet::describe() const {
  char buf[192];
  if (const auto* a = arp()) {
    std::snprintf(buf, sizeof buf, "ARP %s %s(%s) -> %s",
                  a->op == ArpPayload::Op::Request ? "who-has" : "is-at",
                  a->sender_ip.to_string().c_str(),
                  a->sender_mac.to_string().c_str(),
                  a->target_ip.to_string().c_str());
  } else if (const auto* i = icmp()) {
    std::snprintf(buf, sizeof buf, "ICMP %s id=%u seq=%u %s -> %s",
                  i->type == IcmpPayload::Type::EchoRequest ? "echo-req"
                                                            : "echo-rep",
                  i->ident, i->seq,
                  ip ? ip->src.to_string().c_str() : "?",
                  ip ? ip->dst.to_string().c_str() : "?");
  } else if (const auto* t = tcp()) {
    std::snprintf(buf, sizeof buf, "TCP [%s] %s:%u -> %s:%u len=%zu",
                  t->flags.to_string().c_str(),
                  ip ? ip->src.to_string().c_str() : "?", t->src_port,
                  ip ? ip->dst.to_string().c_str() : "?", t->dst_port,
                  t->data_len);
  } else if (const auto* l = lldp()) {
    std::snprintf(buf, sizeof buf, "LLDP chassis=0x%llx port=%u%s%s",
                  static_cast<unsigned long long>(l->chassis_id()),
                  l->port_id(), l->has_authenticator() ? " auth" : "",
                  l->has_timestamp() ? " ts" : "");
  } else if (const auto* r = raw()) {
    std::snprintf(buf, sizeof buf, "RAW %s len=%zu %s -> %s", r->label.c_str(),
                  r->size, ip ? ip->src.to_string().c_str() : "?",
                  ip ? ip->dst.to_string().c_str() : "?");
  } else {
    std::snprintf(buf, sizeof buf, "ETH %s -> %s",
                  src_mac.to_string().c_str(), dst_mac.to_string().c_str());
  }
  return buf;
}

Packet make_arp_request(MacAddress sender_mac, Ipv4Address sender_ip,
                        Ipv4Address target_ip) {
  Packet p;
  p.trace_id = next_trace_id();
  p.src_mac = sender_mac;
  p.dst_mac = MacAddress::broadcast();
  p.ethertype = EtherType::Arp;
  p.payload = ArpPayload{ArpPayload::Op::Request, sender_mac, sender_ip,
                         MacAddress{}, target_ip};
  return p;
}

Packet make_arp_reply(MacAddress sender_mac, Ipv4Address sender_ip,
                      MacAddress target_mac, Ipv4Address target_ip) {
  Packet p;
  p.trace_id = next_trace_id();
  p.src_mac = sender_mac;
  p.dst_mac = target_mac;
  p.ethertype = EtherType::Arp;
  p.payload = ArpPayload{ArpPayload::Op::Reply, sender_mac, sender_ip,
                         target_mac, target_ip};
  return p;
}

Packet make_icmp_echo(MacAddress src_mac, Ipv4Address src_ip,
                      MacAddress dst_mac, Ipv4Address dst_ip,
                      std::uint16_t ident, std::uint16_t seq, bool reply) {
  Packet p;
  p.trace_id = next_trace_id();
  p.src_mac = src_mac;
  p.dst_mac = dst_mac;
  p.ethertype = EtherType::Ipv4;
  p.ip = Ipv4Header{src_ip, dst_ip, 0, IpProto::Icmp, 64};
  p.payload = IcmpPayload{reply ? IcmpPayload::Type::EchoReply
                                : IcmpPayload::Type::EchoRequest,
                          ident, seq};
  return p;
}

Packet make_tcp(MacAddress src_mac, Ipv4Address src_ip, MacAddress dst_mac,
                Ipv4Address dst_ip, std::uint16_t src_port,
                std::uint16_t dst_port, TcpFlags flags, std::size_t data_len) {
  Packet p;
  p.trace_id = next_trace_id();
  p.src_mac = src_mac;
  p.dst_mac = dst_mac;
  p.ethertype = EtherType::Ipv4;
  p.ip = Ipv4Header{src_ip, dst_ip, 0, IpProto::Tcp, 64};
  p.payload = TcpPayload{src_port, dst_port, flags, 0, 0, data_len};
  return p;
}

Packet make_lldp_frame(MacAddress src_mac, LldpPacket lldp) {
  Packet p;
  p.trace_id = next_trace_id();
  p.src_mac = src_mac;
  p.dst_mac = MacAddress::lldp_multicast();
  p.ethertype = EtherType::Lldp;
  p.payload = std::move(lldp);
  return p;
}

Packet make_raw(MacAddress src_mac, Ipv4Address src_ip, MacAddress dst_mac,
                Ipv4Address dst_ip, std::string label, std::size_t size) {
  Packet p;
  p.trace_id = next_trace_id();
  p.src_mac = src_mac;
  p.dst_mac = dst_mac;
  p.ethertype = EtherType::Ipv4;
  p.ip = Ipv4Header{src_ip, dst_ip, 0, IpProto::Udp, 64};
  p.payload = RawPayload{std::move(label), size, {}};
  return p;
}

const char* auth_frame_label() { return "802.1x-auth"; }

Packet make_auth_frame(MacAddress src_mac, Ipv4Address src_ip,
                       std::uint64_t token) {
  Packet p = make_raw(src_mac, src_ip, MacAddress::pae_group(),
                      Ipv4Address::any(), auth_frame_label(), 64);
  auto& bytes = std::get<RawPayload>(p.payload).bytes;
  bytes.resize(8);
  for (int i = 0; i < 8; ++i) {
    bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(token >> (56 - 8 * i));
  }
  return p;
}

std::optional<std::uint64_t> auth_token_of(const Packet& pkt) {
  const auto* raw = pkt.raw();
  if (!raw || raw->label != auth_frame_label() || raw->bytes.size() != 8) {
    return std::nullopt;
  }
  std::uint64_t token = 0;
  for (std::uint8_t b : raw->bytes) token = (token << 8) | b;
  return token;
}

}  // namespace tmg::net
