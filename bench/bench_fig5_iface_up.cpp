// Fig. 5 — Distribution of times from Victim Down to Attacker Interface
// Up (the attacker has claimed the victim's network identity).
//
// Paper: mean ~478 ms in the nmap regime, dominated by engine overhead
// and the confirmation scan's timeout.
#include "hijack_series.hpp"

using namespace tmg;
using namespace tmg::bench;

int main(int argc, char** argv) {
  const int rc = run_hijack_figure(
      argc, argv, "Fig. 5", "Victim Down -> Attacker Interface Up",
      "fig5_iface_up", 100, /*nmap_regime=*/true, "ms", 0.0, 1000.0,
      [](const scenario::HijackOutcome& out) {
        return out.down_to_iface_up_ms;
      });
  std::printf(
      "\nPaper reference: 478 ms mean; the bulk of the delay is spent in\n"
      "scan-engine overhead and waiting out probe timeouts (Sec. V-B).\n");
  return rc;
}
