#include "of/control_channel.hpp"

#include <cassert>
#include <type_traits>
#include <utility>

namespace tmg::of {

ControlChannel::ControlChannel(sim::EventLoop& loop, sim::Rng rng,
                               std::unique_ptr<sim::LatencyModel> latency)
    : loop_{loop}, rng_{std::move(rng)}, latency_{std::move(latency)} {
  assert(latency_);
}

void ControlChannel::attach_switch(SwitchHandler handler) {
  switch_handler_ = std::move(handler);
}

void ControlChannel::attach_controller(CtrlHandler handler) {
  ctrl_handler_ = std::move(handler);
}

void ControlChannel::to_switch(CtrlToSwitch msg) {
  ++n_down_;
  ++down_counts_[msg.index()];
  // The channel is a TCP session: per-message jitter must not reorder.
  sim::SimTime at = loop_.now() + latency_->sample(rng_);
  if (at < last_down_delivery_) at = last_down_delivery_;
  last_down_delivery_ = at;
  // Capture the alternative, not the variant: the variant is as large as
  // a Flow-Mod, and every other message fits the event's inline storage.
  std::visit(
      [this, at](auto&& alt) {
        using Alt = std::decay_t<decltype(alt)>;
        auto deliver = [this, alt = std::move(alt)]() mutable {
          if (switch_handler_) switch_handler_(CtrlToSwitch{std::move(alt)});
        };
        static_assert(std::is_same_v<Alt, FlowMod> ||
                          sim::EventFn::stores_inline<decltype(deliver)>,
                      "a controller-to-switch message outgrew the inline "
                      "event capture");
        loop_.post_at(at, std::move(deliver));
      },
      std::move(msg));
}

void ControlChannel::to_controller(SwitchToCtrl msg) {
  ++n_up_;
  ++up_counts_[msg.index()];
  sim::SimTime at = loop_.now() + latency_->sample(rng_);
  if (at < last_up_delivery_) at = last_up_delivery_;
  last_up_delivery_ = at;
  auto deliver = [this, msg = std::move(msg)]() {
    if (ctrl_handler_) ctrl_handler_(msg);
  };
  static_assert(sim::EventFn::stores_inline<decltype(deliver)>,
                "a switch-to-controller message outgrew the inline event "
                "capture");
  loop_.post_at(at, std::move(deliver));
}

}  // namespace tmg::of
