// Port Probing walkthrough (paper Fig. 2-3, Sec. IV-B, V-B).
//
// The attacker ARP-pings the victim every 50 ms. The instant the victim
// unplugs to migrate, the attacker rewrites its NIC to the victim's
// MAC/IP and originates traffic: the Host Tracking Service re-binds the
// victim to the attacker's port, completing a hijack that violates no
// TopoGuard or SPHINX policy until the victim resurfaces.
#include <cstdio>

#include "example_util.hpp"
#include "scenario/experiments.hpp"
#include "scenario/trial_runner.hpp"

using namespace tmg;
using namespace tmg::scenario;

namespace {

examples::ExampleArgs g_args;  // shared example flags (--check etc.)
bool g_check = false;          // --check: print invariant-checker footers

void report(const char* title, const HijackOutcome& out) {
  std::printf("%s\n", title);
  const auto ms = [](const std::optional<double>& v) {
    return v ? *v : -1.0;
  };
  std::printf("  hijack succeeded:          %s\n",
              out.hijack_succeeded ? "YES" : "no");
  std::printf("  victim-bound traffic redirected to attacker: %s\n",
              out.traffic_redirected ? "YES" : "no");
  std::printf("  victim down -> final probe sent:   %8.2f ms\n",
              ms(out.down_to_final_probe_start_ms));
  std::printf("  victim down -> probe timeout:      %8.2f ms\n",
              ms(out.down_to_declared_down_ms));
  std::printf("  victim down -> attacker iface up:  %8.2f ms\n",
              ms(out.down_to_iface_up_ms));
  std::printf("  victim down -> controller re-bind: %8.2f ms\n",
              ms(out.down_to_confirmed_ms));
  std::printf("  alerts before victim rejoined: %zu\n",
              out.alerts_before_rejoin);
  std::printf("  alerts after victim rejoined:  %zu\n\n",
              out.alerts_after_rejoin);
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
  g_args = examples::parse_example_args(argc, argv,
                                        {.profile = true, .jobs = true});
  g_check = g_args.check;
  std::printf("== Port Probing: hijacking a host in transit ==\n\n");
  std::printf(
      "Victim 10.0.0.1 (aa:aa:aa:aa:aa:aa) begins a planned migration\n"
      "from switch 0x1 port 2 to switch 0x2 port 4 with a ~3 s downtime\n"
      "window (VM live migration scale). The attacker sits on 0x2:5.\n\n");

  // The three defense suites are independent trials; --jobs N runs
  // them concurrently with byte-identical output (DESIGN.md §7).
  const DefenseSuite suites[] = {DefenseSuite::TopoGuard,
                                 DefenseSuite::Sphinx,
                                 DefenseSuite::TopoGuardAndSphinx};
  TrialRunner runner{{g_args.jobs}};
  const auto outcomes = runner.map(3, [&](std::size_t i) {
    HijackConfig cfg;
    cfg.seed = 7;
    cfg.suite = suites[i];
    cfg.profile = g_args.profile;
    cfg.collect_pipeline_stats = g_args.pipeline_stats;
    return run_hijack(cfg);
  });

  report("vs TopoGuard (migration pre/post-conditions):", outcomes[0]);
  report("vs SPHINX (identifier-binding anomaly detection):", outcomes[1]);
  report("vs both defenses together (the paper's headline):", outcomes[2]);

  // --obs-out/--trace-out: rerun the headline trial with the
  // observability layer attached. The exported span tree (attack/hijack
  // -> probe / disconnect-detect / race / ident-change, measured from
  // the scenario/victim.down instant) is what
  // tools/render_timeline.py turns back into the Figs. 5-8 table.
  if (g_args.obs_enabled()) {
    const auto obs = examples::make_observability(g_args);
    HijackConfig cfg;
    cfg.seed = 7;
    cfg.suite = DefenseSuite::TopoGuardAndSphinx;
    cfg.profile = g_args.profile;
    cfg.obs = obs.get();
    const HijackOutcome observed = run_hijack(cfg);
    std::printf("\n[obs] re-ran the '%s' trial observed (hijack %s)\n",
                to_string(cfg.suite),
                observed.hijack_succeeded ? "succeeded" : "failed");
    if (!examples::export_observability(obs.get(), obs->final_time(),
                                        g_args)) {
      return 1;
    }
  }

  std::printf(
      "Observations (paper Sec. IV-B/V-B): the race is won because the\n"
      "victim's in-transit identifiers are bound to nothing; both\n"
      "defenses stay silent until the victim rejoins, and even then the\n"
      "alerts cannot say which host is the attacker. Use cfg.nmap_overhead\n"
      "= true for the paper's nmap measurement regime (Figs. 5-6).\n");
  return 0;
}
