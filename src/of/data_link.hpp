// Physical dataplane link.
//
// Connects two attachment points (switch port <-> switch port, or switch
// port <-> host NIC). Transports packets with a sampled per-packet
// latency and propagates carrier (link-pulse) state changes; the port
// logic on the switch side decides when a carrier loss becomes a
// Port-Down (IEEE 802.3 link-integrity pulse window).
#pragma once

#include <functional>
#include <memory>

#include "net/packet.hpp"
#include "sim/event_loop.hpp"
#include "sim/latency_model.hpp"
#include "sim/rng.hpp"

namespace tmg::of {

enum class Side { A, B };

constexpr Side other(Side s) { return s == Side::A ? Side::B : Side::A; }

class DataLink {
 public:
  struct Peer {
    /// Invoked when a packet arrives at this side, with the pointer the
    /// sender handed in: a switch passes it on without copying the frame.
    std::function<void(const net::PacketPtr&)> on_packet;
    /// Invoked when the *remote* side's carrier changes (raw signal; any
    /// debouncing/detection delay is up to the receiver).
    std::function<void(bool carrier_up)> on_peer_carrier;
  };

  DataLink(sim::EventLoop& loop, sim::Rng rng,
           std::unique_ptr<sim::LatencyModel> latency);

  /// Register the handler for one side. Must be called for both sides
  /// before traffic flows.
  void attach(Side side, Peer peer);

  /// Transmit a packet from `from` to the opposite side. Dropped if
  /// either side's carrier is down at transmission time.
  void send(Side from, net::Packet pkt);

  /// Zero-copy variant: the payload is shared, not copied into the
  /// in-flight event (the switch flood path transmits one packet out
  /// many ports). The callback captures only the shared_ptr, so it fits
  /// the event loop's inline storage.
  void send(Side from, net::PacketPtr pkt);

  /// Raise/lower this side's carrier. The opposite peer is informed
  /// immediately (signal propagation is negligible at these scales).
  void set_carrier(Side side, bool up);

  [[nodiscard]] bool carrier(Side side) const;
  [[nodiscard]] sim::Duration nominal_latency() const {
    return latency_->nominal();
  }

  /// Passive monitor tap invoked on every delivered packet (IDS span
  /// port). Does not affect delivery.
  using Tap = std::function<void(const net::Packet&, Side delivered_to)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  /// Failure injection: packets for which the predicate returns true
  /// are silently lost in transit (carrier stays up).
  using DropFilter = std::function<bool(const net::Packet&)>;
  void set_drop_filter(DropFilter filter) { drop_ = std::move(filter); }

  // Per-direction delivered-packet counters (A->B, B->A).
  [[nodiscard]] std::uint64_t delivered(Side to) const;

 private:
  sim::EventLoop& loop_;
  sim::Rng rng_;
  std::unique_ptr<sim::LatencyModel> latency_;
  Peer peers_[2];
  Tap tap_;
  DropFilter drop_;
  bool carrier_[2] = {true, true};
  std::uint64_t delivered_[2] = {0, 0};
  sim::SimTime last_delivery_[2];

  static std::size_t idx(Side s) { return s == Side::A ? 0 : 1; }
};

}  // namespace tmg::of
