// Fig. 8 — Distribution of times from Victim Down to the attack probe's
// timeout: the earliest instant the attacker knows the victim left.
//
// With the paper's parameters the timeout is 35 ms (the 99th percentile
// of the modeled N(20ms, 5ms) RTT), so this distribution is Fig. 7
// shifted by the timeout value.
#include "hijack_series.hpp"

using namespace tmg;
using namespace tmg::bench;

int main(int argc, char** argv) {
  const int rc = run_hijack_figure(
      argc, argv, "Fig. 8", "Victim Down -> attack probe timeout",
      "fig8_ping_timeout", 200, /*nmap_regime=*/false, "ms", 0.0, 100.0,
      [](const scenario::HijackOutcome& out) {
        return out.down_to_declared_down_ms;
      });
  std::printf(
      "\nPaper reference: the attacker realizes the victim is offline a\n"
      "handful of milliseconds to a few tens of milliseconds after the\n"
      "event; in ideal conditions the bound is the probe timeout derived\n"
      "from the RTT quantile (35 ms at a 1%% false-positive rate).\n");
  return rc;
}
