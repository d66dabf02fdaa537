// Fig. 3 — Host location hijacking timeline.
//
// Regenerates the paper's event timeline (victim/attacker/controller
// actions) for one port-probing hijack, with measured offsets relative
// to the victim going down.
#include <cstdio>

#include "bench_util.hpp"
#include "scenario/cli.hpp"
#include "scenario/experiments.hpp"

using namespace tmg;
using namespace tmg::bench;

int main(int argc, char** argv) {
  scenario::parse_cli(argc, argv, {});
  banner("Fig. 3", "Host location hijacking timeline (not drawn to scale)");

  scenario::HijackConfig cfg;
  cfg.suite = scenario::DefenseSuite::TopoGuardAndSphinx;
  cfg.seed = 7;
  const auto out = scenario::run_hijack(cfg);

  const auto row = [](const char* actor, const char* event, double t_ms) {
    std::printf("  %+10.3f ms  [%-10s] %s\n", t_ms, actor, event);
  };

  std::printf("\nEvents relative to the victim going offline (t = 0):\n\n");
  row("victim", "victim interface down (begins migration)", 0.0);
  if (out.down_to_final_probe_start_ms) {
    row("attacker", "final liveness probe transmitted",
        *out.down_to_final_probe_start_ms);
  }
  if (out.down_to_declared_down_ms) {
    row("attacker", "probe timeout: victim believed offline",
        *out.down_to_declared_down_ms);
  }
  if (out.down_to_iface_up_ms && out.ident_change_ms) {
    row("attacker", "ifconfig begins (down, set MAC/IP)",
        *out.down_to_iface_up_ms - *out.ident_change_ms);
    row("attacker", "interface up as victim; spoofed traffic sent",
        *out.down_to_iface_up_ms);
  }
  if (out.down_to_confirmed_ms) {
    row("controller", "Packet-In: HTS re-binds victim to attacker port",
        *out.down_to_confirmed_ms);
  }
  row("victim", "victim rejoins at new location (seconds later)", 3000.0);

  section("Outcome");
  std::printf("  hijack succeeded:        %s\n",
              yes_no(out.hijack_succeeded).c_str());
  std::printf("  victim traffic redirected:%s\n",
              yes_no(out.traffic_redirected).c_str());
  std::printf("  alerts before rejoin:    %zu (TopoGuard+SPHINX deployed)\n",
              out.alerts_before_rejoin);
  std::printf("  alerts after rejoin:     %zu (oscillation detected)\n",
              out.alerts_after_rejoin);
  return 0;
}
