// fixture: the wall-clock rule is hard in every module, src/ctrl
// included — the allow directive below must NOT suppress the finding.
#include <chrono>

namespace fx::ctrl {

long listener_cost_ns() {
  // tmglint: allow(wall-clock) tempting, but host time is perfbench's
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

}  // namespace fx::ctrl
