// Out-of-band relay channel.
//
// Models the attackers' secret side channel (an 802.11 link in the
// paper's Fig. 1 / Fig. 9 testbeds): a simple delay pipe outside the
// SDN, with propagation latency plus per-packet encode/decode overhead
// (Ethernet <-> 802.11 re-framing). That irreducible added latency is
// precisely what the TOPOGUARD+ LLI detects.
#pragma once

#include <functional>

#include "net/packet.hpp"
#include "sim/event_loop.hpp"
#include "sim/latency_model.hpp"
#include "sim/rng.hpp"

namespace tmg::attack {

struct OobChannelConfig {
  /// One-way propagation latency (paper Fig. 9: 10 ms).
  sim::Duration latency = sim::Duration::millis(10);
  /// Gaussian jitter on the propagation latency.
  sim::Duration jitter = sim::Duration::micros(500);
  /// Per-packet encode+decode overhead at the endpoints.
  sim::Duration codec_overhead = sim::Duration::millis(1);
};

class OutOfBandChannel {
 public:
  OutOfBandChannel(sim::EventLoop& loop, sim::Rng rng,
                   OobChannelConfig config = {});

  /// Relay `pkt` to the far end; `deliver` runs after the channel delay.
  void transfer(net::Packet pkt,
                std::function<void(net::Packet)> deliver);

  /// Schedule an arbitrary action after one channel traversal (control
  /// coordination between the colluding hosts).
  void signal(std::function<void()> action);

  [[nodiscard]] std::uint64_t transfers() const { return transfers_; }

 private:
  [[nodiscard]] sim::Duration sample_delay();

  sim::EventLoop& loop_;
  sim::Rng rng_;
  OobChannelConfig config_;
  std::uint64_t transfers_ = 0;
};

}  // namespace tmg::attack
