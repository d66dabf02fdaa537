#include "defense/secure_binding.hpp"

#include <memory>

namespace tmg::defense {

using ctrl::Alert;
using ctrl::AlertType;
using ctrl::Verdict;

SecureBinding::SecureBinding(ctrl::Controller& ctrl,
                             SecureBindingConfig config)
    : ctrl_{ctrl}, config_{std::move(config)} {}

const Enrollment* SecureBinding::authenticated_device(
    of::Location loc) const {
  const auto it = port_device_.find(loc);
  if (it == port_device_.end()) return nullptr;
  const auto reg = config_.registry.find(it->second);
  return reg == config_.registry.end() ? nullptr : &reg->second;
}

Verdict SecureBinding::on_packet_in(const of::PacketIn& pi) {
  const auto maybe_token = net::auth_token_of(*pi.packet);
  if (!maybe_token) return Verdict::Allow;
  const std::uint64_t token = *maybe_token;

  const of::Location loc{pi.dpid, pi.in_port};
  if (config_.registry.contains(token)) {
    ++auth_ok_;
    port_device_[loc] = token;
  } else {
    ++auth_fail_;
    ctrl_.alerts().raise(Alert{
        ctrl_.loop().now(), name(), AlertType::SecureBindingViolation,
        "authentication with unknown credential at " + loc.to_string(), loc});
  }
  return Verdict::Allow;
}

void SecureBinding::on_port_status(const of::PortStatus& ps) {
  // A downed port loses its authentication session (the supplicant must
  // re-run 802.1x on link-up, exactly as real deployments behave).
  if (ps.reason == of::PortStatus::Reason::Down) {
    port_device_.erase(of::Location{ps.dpid, ps.port});
  }
}

Verdict SecureBinding::on_host_event(const ctrl::HostEvent& ev) {
  const Enrollment* device = authenticated_device(ev.new_loc);
  const bool identifiers_match =
      device != nullptr && device->mac == ev.mac &&
      (ev.ip == net::Ipv4Address::any() || device->ip == ev.ip);
  if (identifiers_match) return Verdict::Allow;

  ctrl_.alerts().raise(Alert{
      ctrl_.loop().now(), name(), AlertType::SecureBindingViolation,
      device == nullptr
          ? "host " + ev.mac.to_string() + " on unauthenticated port " +
                ev.new_loc.to_string()
          : "identifiers " + ev.mac.to_string() + "/" + ev.ip.to_string() +
                " not bound to credential '" + device->device_name +
                "' on " + ev.new_loc.to_string(),
      ev.new_loc});
  if (config_.block) {
    ++blocked_;
    return Verdict::Block;
  }
  return Verdict::Allow;
}

SecureBinding& install_secure_binding(ctrl::Controller& ctrl,
                                      SecureBindingConfig config) {
  auto module = std::make_unique<SecureBinding>(ctrl, std::move(config));
  SecureBinding& ref = *module;
  ctrl.add_defense(std::move(module));
  return ref;
}

}  // namespace tmg::defense
