// Secure identifier binding (paper Sec. VI-A).
//
// The paper's prescribed defense against Port Probing: extend
// 802.1x-style network access control so that a device's *network
// identifiers* (MAC, IP) are cryptographically bound to its credential
// (Jero et al., USENIX Security'17). A port only accepts host bindings
// for identifiers registered to the credential that authenticated on
// that port; an attacker can flap, spoof and win races all it likes —
// it cannot claim the victim's identifiers without the victim's
// credential.
//
// Model: hosts carry an auth token (HostConfig::auth_token) and emit an
// EAPOL-like frame to the 802.1x PAE group address whenever their
// interface comes up. This module consumes those frames, resolves the
// token against its enrollment registry, and records which device is
// authenticated on which port. Host (re)bindings are then vetoed unless
// the claimed MAC belongs to that port's authenticated device.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>

#include "ctrl/controller.hpp"
#include "ctrl/defense_module.hpp"

namespace tmg::defense {

struct Enrollment {
  std::string device_name;
  net::MacAddress mac;
  net::Ipv4Address ip;
};

struct SecureBindingConfig {
  /// token -> enrolled identity (provisioned out of band).
  std::map<std::uint64_t, Enrollment> registry;
  /// Reject bindings on ports with no authenticated device. Disabling
  /// this yields a monitor-only deployment (alerts, no vetoes).
  bool block = true;
};

class SecureBinding : public ctrl::DefenseModule {
 public:
  SecureBinding(ctrl::Controller& ctrl, SecureBindingConfig config);

  [[nodiscard]] std::string name() const override { return "SecureBinding"; }

  ctrl::Verdict on_packet_in(const of::PacketIn& pi,
                             std::uint32_t switch_index) override;
  void on_port_status(const of::PortStatus& ps) override;
  ctrl::Verdict on_host_event(const ctrl::HostEvent& ev) override;

  /// The device currently authenticated on `loc` (nullptr if none).
  [[nodiscard]] const Enrollment* authenticated_device(
      of::Location loc) const;

  [[nodiscard]] std::uint64_t auth_successes() const { return auth_ok_; }
  [[nodiscard]] std::uint64_t auth_failures() const { return auth_fail_; }
  [[nodiscard]] std::uint64_t bindings_blocked() const { return blocked_; }

 private:
  ctrl::Controller& ctrl_;
  SecureBindingConfig config_;
  std::unordered_map<of::Location, std::uint64_t> port_device_;  // -> token
  std::uint64_t auth_ok_ = 0;
  std::uint64_t auth_fail_ = 0;
  std::uint64_t blocked_ = 0;
};

/// Install the module; the registry is usually built from the testbed's
/// legitimate hosts.
SecureBinding& install_secure_binding(ctrl::Controller& ctrl,
                                      SecureBindingConfig config);

}  // namespace tmg::defense
