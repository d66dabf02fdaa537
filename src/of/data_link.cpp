#include "of/data_link.hpp"

#include <cassert>
#include <utility>

namespace tmg::of {

DataLink::DataLink(sim::EventLoop& loop, sim::Rng rng,
                   std::unique_ptr<sim::LatencyModel> latency)
    : loop_{loop}, rng_{std::move(rng)}, latency_{std::move(latency)} {
  assert(latency_);
}

void DataLink::attach(Side side, Peer peer) {
  peers_[idx(side)] = std::move(peer);
}

void DataLink::send(Side from, net::Packet pkt) {
  send(from, std::make_shared<const net::Packet>(std::move(pkt)));
}

void DataLink::send(Side from, net::PacketPtr pkt) {
  const Side to = other(from);
  if (!carrier_[idx(from)] || !carrier_[idx(to)]) return;  // no carrier: lost
  if (drop_ && drop_(*pkt)) return;  // injected in-transit loss
  // A wire is FIFO: jitter must not reorder packets in one direction.
  sim::SimTime at = loop_.now() + latency_->sample(rng_);
  if (at < last_delivery_[idx(to)]) at = last_delivery_[idx(to)];
  last_delivery_[idx(to)] = at;
  loop_.post_at(at, [this, to, pkt = std::move(pkt)]() {
    auto& peer = peers_[idx(to)];
    if (!peer.on_packet) return;
    ++delivered_[idx(to)];
    if (tap_) tap_(*pkt, to);
    peer.on_packet(pkt);
  });
}

void DataLink::set_carrier(Side side, bool up) {
  if (carrier_[idx(side)] == up) return;
  carrier_[idx(side)] = up;
  auto& peer = peers_[idx(other(side))];
  if (peer.on_peer_carrier) peer.on_peer_carrier(up);
}

bool DataLink::carrier(Side side) const { return carrier_[idx(side)]; }

std::uint64_t DataLink::delivered(Side to) const { return delivered_[idx(to)]; }

}  // namespace tmg::of
