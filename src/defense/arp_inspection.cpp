#include "defense/arp_inspection.hpp"

#include <memory>

#include "ctrl/host_tracker.hpp"

namespace tmg::defense {

using ctrl::Alert;
using ctrl::AlertType;
using ctrl::Verdict;

namespace {
/// Priority of the ARP punt rules (above reactive routing's rules).
constexpr std::uint16_t kPuntPriority = 500;
}  // namespace

DynamicArpInspection::DynamicArpInspection(ctrl::Controller& ctrl,
                                           ArpInspectionConfig config)
    : ctrl_{ctrl}, config_{config} {}

void DynamicArpInspection::deploy() {
  if (deployed_) return;
  deployed_ = true;
  for (const of::Dpid dpid : ctrl_.switch_dpids()) {
    of::FlowMod punt;
    punt.command = of::FlowMod::Command::Add;
    punt.match.ethertype = net::EtherType::Arp;
    punt.action = of::FlowAction::to_controller();
    punt.priority = kPuntPriority;
    punt.notify_on_removal = false;
    ctrl_.send_flow_mod(dpid, punt);
  }
}

Verdict DynamicArpInspection::on_packet_in(const of::PacketIn& pi) {
  const auto* arp = pi.packet->arp();
  if (!arp) return Verdict::Allow;
  ++inspected_;

  // Validate the claimed sender binding against the HTS view: an IP
  // already bound to a different MAC is being spoofed.
  const auto known = ctrl_.host_tracker().find_by_ip(arp->sender_ip);
  const bool violation = known.has_value() && known->mac != arp->sender_mac;
  if (!violation) return Verdict::Allow;

  ++violations_;
  ctrl_.alerts().raise(Alert{
      ctrl_.loop().now(), name(), AlertType::ArpInspectionViolation,
      "ARP claims " + arp->sender_ip.to_string() + " is-at " +
          arp->sender_mac.to_string() + " but it is bound to " +
          known->mac.to_string(),
      of::Location{pi.dpid, pi.in_port}});
  return config_.block ? Verdict::Block : Verdict::Allow;
}

DynamicArpInspection& install_arp_inspection(ctrl::Controller& ctrl,
                                             ArpInspectionConfig config) {
  auto module = std::make_unique<DynamicArpInspection>(ctrl, config);
  DynamicArpInspection& ref = *module;
  ctrl.add_defense(std::move(module));
  return ref;
}

}  // namespace tmg::defense
