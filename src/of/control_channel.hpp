// Controller <-> switch control channel.
//
// Carries OpenFlow messages with a per-message one-way latency. The
// TOPOGUARD+ Link Latency Inspector explicitly measures this channel's
// RTT (echo probes) in order to subtract it from LLDP propagation time,
// so the latency model here matters for reproducing Figs. 10-11.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <variant>

#include "of/messages.hpp"
#include "sim/event_loop.hpp"
#include "sim/latency_model.hpp"
#include "sim/rng.hpp"

namespace tmg::of {

class ControlChannel {
 public:
  using SwitchHandler = std::function<void(const CtrlToSwitch&)>;
  using CtrlHandler = std::function<void(const SwitchToCtrl&)>;

  ControlChannel(sim::EventLoop& loop, sim::Rng rng,
                 std::unique_ptr<sim::LatencyModel> latency);

  void attach_switch(SwitchHandler handler);
  void attach_controller(CtrlHandler handler);

  /// Controller -> switch, delivered after a sampled one-way latency.
  void to_switch(CtrlToSwitch msg);

  /// Switch -> controller.
  void to_controller(SwitchToCtrl msg);

  [[nodiscard]] sim::Duration nominal_latency() const {
    return latency_->nominal();
  }

  [[nodiscard]] std::uint64_t messages_to_switch() const { return n_down_; }
  [[nodiscard]] std::uint64_t messages_to_controller() const { return n_up_; }

  /// Per-message-type counters, indexed by the variant alternative index
  /// of CtrlToSwitch / SwitchToCtrl. Each array sums to the matching
  /// total above. No export reads them; the channel and fleet tests do.
  using DownCounts = std::array<std::uint64_t, std::variant_size_v<CtrlToSwitch>>;
  using UpCounts = std::array<std::uint64_t, std::variant_size_v<SwitchToCtrl>>;
  [[nodiscard]] const DownCounts& to_switch_counts() const {
    return down_counts_;
  }
  [[nodiscard]] const UpCounts& to_controller_counts() const {
    return up_counts_;
  }

 private:
  sim::EventLoop& loop_;
  sim::Rng rng_;
  std::unique_ptr<sim::LatencyModel> latency_;
  SwitchHandler switch_handler_;
  CtrlHandler ctrl_handler_;
  std::uint64_t n_down_ = 0;
  std::uint64_t n_up_ = 0;
  DownCounts down_counts_{};
  UpCounts up_counts_{};
  sim::SimTime last_down_delivery_;
  sim::SimTime last_up_delivery_;
};

}  // namespace tmg::of
