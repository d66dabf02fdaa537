// Dynamic ARP Inspection (the conventional anti-ARP-spoofing defense,
// paper Sec. III-A.2).
//
// Deploys high-priority punt rules so every ARP packet traverses the
// controller, then validates the ARP sender fields against the Host
// Tracking Service's IP bindings: a reply claiming an IP that is bound
// to a different MAC is dropped and alerted.
//
// The paper's point, which the tests reproduce: DAI kills classic ARP
// cache poisoning but is *ineffective against Host Location Hijacking*,
// because HLH presents a perfectly consistent IP-to-MAC pair (the
// victim's own) — it is the MAC-to-port binding that it corrupts.
#pragma once

#include "ctrl/controller.hpp"
#include "ctrl/defense_module.hpp"

namespace tmg::defense {

struct ArpInspectionConfig {
  /// Drop violating ARP packets (DAI always drops in real deployments).
  bool block = true;
};

class DynamicArpInspection : public ctrl::DefenseModule {
 public:
  DynamicArpInspection(ctrl::Controller& ctrl, ArpInspectionConfig config);

  [[nodiscard]] std::string name() const override { return "DAI"; }

  /// Install the ARP punt rules on every connected switch. Call after
  /// the testbed has started (switches must be registered).
  void deploy();

  ctrl::Verdict on_packet_in(const of::PacketIn& pi,
                             std::uint32_t switch_index) override;

  [[nodiscard]] std::uint64_t inspected() const { return inspected_; }
  [[nodiscard]] std::uint64_t violations() const { return violations_; }

 private:
  ctrl::Controller& ctrl_;
  ArpInspectionConfig config_;
  std::uint64_t inspected_ = 0;
  std::uint64_t violations_ = 0;
  bool deployed_ = false;
};

/// Install the module on the controller and return a handle; call
/// deploy() on it after Testbed::start().
DynamicArpInspection& install_arp_inspection(
    ctrl::Controller& ctrl, ArpInspectionConfig config = {});

}  // namespace tmg::defense
