// fixture: a miniature controller in the real tree's form — a
// PipelineLayout slot table with defaults, one <key>_profile() that
// overrides a slot, listener bodies in the .cpp, one name routed
// through a string constant, one resolved only at runtime.
#include <memory>
#include <vector>

namespace fx::ctrl {

inline constexpr const char* kAuditName = "audit-listener";

struct PipelineLayout {
  int core = 0;
  int defense_base = 100;
  int defense_step = 10;
  int audit = 400;
};

struct ControllerProfile {
  PipelineLayout layout;
};

ControllerProfile mini_profile();

class AuditListener;
class AdapterListener;

class MiniController {
 public:
  explicit MiniController(ControllerProfile profile);
  void add_defense();

 private:
  class CoreListener;
  ControllerProfile profile_;
  MessagePipeline pipeline_;
  std::unique_ptr<AuditListener> audit_;
  std::unique_ptr<AdapterListener> adapter_;
  std::vector<int> mods_;
};

}  // namespace fx::ctrl
