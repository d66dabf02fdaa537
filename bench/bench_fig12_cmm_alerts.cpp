// Fig. 12 — TOPOGUARD+ alerts for anomalous control messages during
// LLDP propagation (in-band port amnesia detected by the CMM).
//
// Launches the in-band attack against TOPOGUARD+ on the Fig. 9 testbed
// and prints the alert log, mirroring the paper's console capture.
#include <cstdio>

#include "bench_util.hpp"
#include "scenario/cli.hpp"
#include "scenario/experiments.hpp"

using namespace tmg;
using namespace tmg::bench;

int main(int argc, char** argv) {
  scenario::parse_cli(argc, argv, {});
  banner("Fig. 12", "TOPOGUARD+ alerts: control messages during LLDP");

  scenario::LinkAttackConfig cfg;
  cfg.kind = scenario::LinkAttackKind::InBandAmnesia;
  cfg.suite = scenario::DefenseSuite::TopoGuardPlus;
  const auto out = scenario::run_link_attack(cfg);

  section("Outcome");
  std::printf("  LLDP relays attempted:   %llu\n",
              static_cast<unsigned long long>(out.lldp_relayed));
  std::printf("  amnesia flaps performed: %llu\n",
              static_cast<unsigned long long>(out.flaps));
  std::printf("  CMM alerts:              %zu\n", out.alerts_cmm);
  std::printf("  LLI alerts:              %zu\n", out.alerts_lli);
  std::printf("  fabricated link held at end: %s\n",
              yes_no(out.link_present_at_end).c_str());
  std::printf("  attack detected:         %s\n",
              yes_no(out.detected()).c_str());

  std::printf(
      "\nPaper reference (Fig. 12 console): every in-band port amnesia\n"
      "attempt is detected because the HOST/SWITCH context switch must\n"
      "generate Port-Down/Up messages inside the LLDP propagation window\n"
      "(Sec. VII-A).\n");
  return 0;
}
