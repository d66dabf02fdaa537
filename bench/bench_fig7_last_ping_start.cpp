// Fig. 7 — Distribution of times from Victim Down to the start of the
// attacker's final (failing) liveness probe.
//
// Paper: the final probe begins on average within half a millisecond of
// the victim going offline — the probe *in flight* when the victim
// disconnects is usually the one that fails, so the start offset
// clusters near zero (it can even be negative: a probe transmitted just
// before the victim unplugged whose request arrived too late).
#include "hijack_series.hpp"

using namespace tmg;
using namespace tmg::bench;

int main(int argc, char** argv) {
  const int rc = run_hijack_figure(
      argc, argv, "Fig. 7", "Victim Down -> start of attacker's final probe",
      "fig7_last_ping_start", 200, /*nmap_regime=*/false, "ms", -50.0, 50.0,
      [](const scenario::HijackOutcome& out) {
        return out.down_to_final_probe_start_ms;
      });
  std::printf(
      "\nPaper reference: within ~0.5 ms of the victim going offline on\n"
      "average (raw 50 ms-cadence ARP probes, Sec. V-B1).\n");
  return rc;
}
