// Fig. 6 — Distribution of times from Victim Down to Controller
// Packet-In: the Host Tracking Service has re-bound the victim's
// identity to the attacker, and victim-bound traffic now reaches the
// attacker.
//
// Paper: mean ~549 ms in the nmap regime.
#include "hijack_series.hpp"

using namespace tmg;
using namespace tmg::bench;

int main(int argc, char** argv) {
  const int rc = run_hijack_figure(
      argc, argv, "Fig. 6", "Victim Down -> Controller acknowledges attacker",
      "fig6_controller_ack", 100, /*nmap_regime=*/true, "ms", 0.0, 1000.0,
      [](const scenario::HijackOutcome& out) {
        return out.down_to_confirmed_ms;
      });
  std::printf(
      "\nPaper reference: 549 ms mean from victim-down to controller\n"
      "recognition; live-migration downtime windows are seconds, so the\n"
      "majority of the window remains for attacker actions (Sec. V-B).\n");
  return rc;
}
