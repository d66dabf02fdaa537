// Port Amnesia walkthrough (paper Fig. 1, Sec. IV-A, V-A).
//
// Three acts on the Fig. 9 evaluation testbed:
//   1. classic LLDP relay vs TopoGuard      -> detected and blocked;
//   2. out-of-band port amnesia vs TopoGuard -> link fabricated, MITM
//      traffic flows, zero alerts;
//   3. the same attack vs TOPOGUARD+         -> the LLI flags the relay
//      latency and blocks the link.
#include <cstdio>

#include "example_util.hpp"
#include "scenario/experiments.hpp"

using namespace tmg;
using namespace tmg::scenario;

namespace {

examples::ExampleArgs g_args;  // shared example flags (--check etc.)
bool g_check = false;          // --check: print invariant-checker footers

void report(const char* act, const LinkAttackOutcome& out) {
  std::printf("%s\n", act);
  std::printf("  fabricated link registered: %s\n",
              out.link_registered ? "YES" : "no");
  std::printf("  held at end of run:         %s\n",
              out.link_present_at_end ? "YES" : "no");
  std::printf("  MITM transit bridged:       %llu packets\n",
              static_cast<unsigned long long>(out.transit_bridged));
  std::printf("  amnesia flaps:              %llu\n",
              static_cast<unsigned long long>(out.flaps));
  std::printf("  alerts: TopoGuard=%zu SPHINX=%zu CMM=%zu LLI=%zu -> %s\n\n",
              out.alerts_topoguard, out.alerts_sphinx, out.alerts_cmm,
              out.alerts_lli,
              out.detected() ? "DETECTED" : "undetected");
  if (g_check) {
    std::printf("  [--check] invariant sweeps: %llu, violations: %llu\n\n",
                static_cast<unsigned long long>(out.invariant_sweeps),
                static_cast<unsigned long long>(out.invariant_violations));
  }
  examples::print_pipeline_stats(out.pipeline_stats, g_args);
}

}  // namespace

int main(int argc, char** argv) {
  // The experiment driver owns the controller: no --modules.
  g_args = examples::parse_example_args(argc, argv, {.profile = true});
  g_check = g_args.check;
  std::printf("== Port Amnesia: link fabrication that survives TopoGuard ==\n\n");
  std::printf(
      "Two compromised hosts on switches 0x2 and 0x4 relay the\n"
      "controller's LLDP probes over a hidden wireless channel,\n"
      "convincing the controller a direct 0x2<->0x4 link exists. All\n"
      "traffic between the end hosts then flows through the attackers.\n\n");

  LinkAttackConfig cfg;
  cfg.seed = 42;
  cfg.profile = g_args.profile;
  cfg.collect_pipeline_stats = g_args.pipeline_stats;

  cfg.kind = LinkAttackKind::ClassicRelay;
  cfg.suite = DefenseSuite::TopoGuard;
  report("Act 1 — classic relay vs TopoGuard (the pre-paper baseline):",
         run_link_attack(cfg));

  cfg.kind = LinkAttackKind::OobAmnesia;
  cfg.suite = DefenseSuite::TopoGuardAndSphinx;
  report(
      "Act 2 — port amnesia vs TopoGuard + SPHINX (paper Sec. V-A):\n"
      "  one >=16 ms interface flap per port erases the HOST profile\n"
      "  (Port-Down resets it to ANY) before the relayed LLDP arrives.",
      run_link_attack(cfg));

  cfg.suite = DefenseSuite::TopoGuardPlus;
  // Act 3 carries the observability layer when asked: the exported
  // trace holds the attack/flap + attack/relay spans and the lldp/rtt
  // round-trips the LLI's detection is computed from.
  const auto obs = examples::make_observability(g_args);
  cfg.obs = obs.get();
  report(
      "Act 3 — the same attack vs TOPOGUARD+ (paper Sec. VII):\n"
      "  the relay adds ~11 ms that the encrypted-timestamp latency\n"
      "  check cannot be talked out of.",
      run_link_attack(cfg));
  if (!examples::export_observability(
          obs.get(), obs ? obs->final_time() : sim::SimTime{}, g_args)) {
    return 1;
  }

  std::printf(
      "Also try: the in-band variant (LinkAttackKind::InBandAmnesia),\n"
      "whose per-round context switches the CMM catches, and the\n"
      "blackhole variant (cfg.blackhole = true), which SPHINX's flow\n"
      "counters expose. bench_attack_matrix prints the full grid.\n");
  return 0;
}
