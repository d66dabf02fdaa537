#include "ctrl/mini_controller.hpp"

namespace fx::ctrl {

class MiniController::CoreListener final : public MessageListener {
 public:
  std::string name() const override { return "core"; }
  std::uint32_t subscriptions() const override {
    return mask_of(MessageType::PacketIn);
  }
};

class AuditListener final : public MessageListener {
 public:
  std::string name() const override { return kAuditName; }
  std::uint32_t subscriptions() const override {
    return mask_of(MessageType::PacketIn) | mask_of(MessageType::FlowStats);
  }
};

class AdapterListener final : public MessageListener {
 public:
  std::string name() const override { return module_.name(); }
  std::uint32_t subscriptions() const override {
    return mask_of(MessageType::PacketIn) | mask_of(MessageType::PortStatus);
  }
};

ControllerProfile mini_profile() {
  ControllerProfile p;
  p.layout.audit = 500;
  return p;
}

MiniController::MiniController(ControllerProfile profile)
    : profile_{profile} {
  const PipelineLayout& layout = profile_.layout;
  pipeline_.add_owned(layout.core, std::make_unique<CoreListener>());
  pipeline_.add(layout.audit, *audit_);
}

void MiniController::add_defense() {
  mods_.push_back(1);
  const PipelineLayout& layout = profile_.layout;
  const int priority =
      layout.defense_base +
      layout.defense_step * static_cast<int>(mods_.size() - 1);
  pipeline_.add(priority, *adapter_);
}

}  // namespace fx::ctrl
