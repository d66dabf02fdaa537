#include "attack/link_fabrication.hpp"

namespace tmg::attack {

ClassicLinkFabrication::ClassicLinkFabrication(sim::EventLoop& loop, Host& a,
                                               Host& b, OutOfBandChannel& oob,
                                               Config config)
    : loop_{loop}, config_{config}, oob_{oob}, a_{a}, b_{b} {}

void ClassicLinkFabrication::start() {
  if (started_) return;
  started_ = true;
  arm(a_, b_, true);
  arm(b_, a_, config_.bidirectional);
}

void ClassicLinkFabrication::arm(Host& self, Host& peer, bool relays) {
  self.set_packet_hook([this, &self, &peer, relays](const net::Packet& pkt) {
    if (pkt.is_lldp()) {
      if (!relays) return true;  // swallow silently
      oob_.transfer(pkt, [this, &peer](net::Packet relayed) {
        ++lldp_relayed_;
        peer.send(std::move(relayed));
      });
      return true;
    }
    if (config_.bridge_transit && pkt.dst_mac != self.mac() &&
        !pkt.dst_mac.is_broadcast() && !pkt.dst_mac.is_multicast()) {
      oob_.transfer(pkt, [this, &peer](net::Packet relayed) {
        ++transit_bridged_;
        peer.send(std::move(relayed));
      });
      return true;
    }
    return false;
  });
}

}  // namespace tmg::attack
