#include "defense/cmm.hpp"

#include <algorithm>

#include "check/assert.hpp"

namespace tmg::defense {

using ctrl::Alert;
using ctrl::AlertType;
using ctrl::Verdict;

Cmm::Cmm(ctrl::Controller& ctrl, CmmConfig config)
    : ctrl_{ctrl}, config_{config} {}

void Cmm::on_port_status(const of::PortStatus& ps) {
  const sim::SimTime now = ctrl_.loop().now();
  TMG_DCHECK(events_.empty() || events_.back().at <= now,
             "CMM port events must arrive in time order");
  events_.push_back(
      PortEvent{of::Location{ps.dpid, ps.port}, now, ps.reason});
  prune(now);
}

void Cmm::prune(sim::SimTime now) {
  while (!events_.empty() && now - events_.front().at > config_.history) {
    events_.pop_front();
  }
}

bool Cmm::port_event_in_window(of::Location a, of::Location b,
                               sim::SimTime from, sim::SimTime to) const {
  // events_ is in arrival order, i.e. sorted by time: bisect to the
  // window's start and walk only the window.
  auto it = std::lower_bound(
      events_.begin(), events_.end(), from,
      [](const PortEvent& e, sim::SimTime t) { return e.at < t; });
  for (; it != events_.end() && it->at <= to; ++it) {
    if (it->loc == a || it->loc == b) return true;
  }
  return false;
}

Verdict Cmm::on_lldp_observation(const ctrl::LldpObservation& obs) {
  // Retroactive check over the propagation window, applied to both the
  // advertised (sender) and receiving port (paper Sec. VI-C: the
  // receiver is not known in advance, so events are logged and checked
  // on receipt).
  if (!port_event_in_window(obs.src, obs.dst, obs.emitted_at,
                            obs.received_at)) {
    return Verdict::Allow;
  }

  ++detections_;
  ctrl_.alerts().raise(Alert{
      ctrl_.loop().now(), name(), AlertType::CmmControlMessage,
      "Port-Up/Down during LLDP propagation " + obs.src.to_string() + " -> " +
          obs.dst.to_string() + " (suspected in-band port amnesia)",
      obs.dst});
  return config_.block ? Verdict::Block : Verdict::Allow;
}

}  // namespace tmg::defense
