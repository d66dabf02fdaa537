// fixture: three wiring defects — a duplicate chain priority, a
// listener class nobody registers, and (via
// tools/tmglint/pipeline_spec_mini.txt) a spec that drifted from the
// source.
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

class ExtraListener final : public MessageListener {
 public:
  std::string name() const override { return "extra"; }
  std::uint32_t subscriptions() const override {
    return mask_of(MessageType::PacketIn);
  }
};

// Defect: derives MessageListener but is never added to the chain.
class OrphanListener final : public MessageListener {
 public:
  std::string name() const override { return "orphan"; }
  std::uint32_t subscriptions() const override {
    return mask_of(MessageType::PortStats);
  }
};

// Defect: the override moves the audit listener onto the extra slot's
// default priority — chain order now depends on the name tie-break.
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
  pipeline_.add(layout.extra, *extra_);
}

}  // namespace fx::ctrl
