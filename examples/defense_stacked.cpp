// Stacked defenses on the message pipeline (DESIGN.md §9).
//
// TopoGuard, SPHINX, and the TOPOGUARD+ extensions (CMM + LLI) deployed
// *simultaneously* as ordered pipeline listeners on the Fig. 9 evaluation
// testbed. Every module sees every event; verdicts accumulate, so one
// Block wins without silencing the other detectors (paper Sec. IV-B).
// The run then launches the CMM-evasive out-of-band port amnesia attack
// and prints which layers of the stack fired, plus the per-listener
// dispatch counters the pipeline keeps.
//
// Flags: --check, --modules=list / --modules=-LLI,... , --pipeline-stats
// (the counters are printed unconditionally here — they are the point).
#include <cstdio>

#include "attack/port_amnesia.hpp"
#include "example_util.hpp"
#include "scenario/experiments.hpp"
#include "scenario/fig9_testbed.hpp"

using namespace tmg;
using namespace tmg::sim::literals;

int main(int argc, char** argv) {
  examples::ExampleArgs args = examples::parse_example_args(
      argc, argv, {.modules = true, .profile = true});
  std::printf("== Stacking every defense on the message pipeline ==\n\n");

  scenario::TestbedOptions opts = scenario::fig9_options();
  opts.controller.authenticate_lldp = true;
  opts.controller.lldp_timestamps = true;
  examples::apply_check_flag(opts, args);
  examples::apply_profile_flag(opts, args);
  scenario::Fig9Testbed f = scenario::make_fig9_testbed(opts);
  ctrl::Controller& ctrl = f.tb->controller();
  scenario::install_suite(ctrl, scenario::DefenseSuite::Stacked);
  const auto obs = examples::make_observability(args);
  f.tb->set_observability(obs.get());
  examples::apply_modules(ctrl, args);

  std::printf("Pipeline chain (priority order):\n");
  for (const auto& s : ctrl.pipeline().stats()) {
    std::printf("  %4d  %-16s %s\n", s.priority, s.name.c_str(),
                s.enabled ? "enabled" : "disabled");
  }

  ctrl.alerts().subscribe([](const ctrl::Alert& a) {
    std::printf("  [%8.3fs] ALERT %-10s %-24s %s\n", a.time.to_seconds_f(),
                a.module.c_str(), ctrl::to_string(a.type), a.message.c_str());
  });

  f.tb->start(2_s);
  scenario::fig9_warm_hosts(f);

  std::printf("\nCalibration: one minute of benign operation...\n");
  f.tb->run_for(60_s);

  std::printf(
      "\nLaunching out-of-band port amnesia (prepositioned flaps, the\n"
      "CMM-evasive variant) at t=%.0fs...\n\n",
      f.tb->loop().now().to_seconds_f());
  attack::PortAmnesiaAttack::Config ac;
  ac.mode = attack::PortAmnesiaAttack::Mode::OutOfBand;
  ac.preposition_flap = true;
  attack::PortAmnesiaAttack attack{f.tb->loop(), *f.attacker_a,
                                   *f.attacker_b, f.oob, ac};
  attack.set_observability(obs.get());
  attack.start();
  f.tb->run_for(120_s);

  std::printf("\nFinal state:\n");
  std::printf("  LLDP relays attempted: %llu\n",
              static_cast<unsigned long long>(attack.lldp_relayed()));
  std::printf("  alerts: TopoGuard=%zu SPHINX=%zu CMM=%zu LLI=%zu\n",
              ctrl.alerts().count_from("TopoGuard"),
              ctrl.alerts().count_from("SPHINX"),
              ctrl.alerts().count_from("CMM"),
              ctrl.alerts().count_from("LLI"));
  std::printf("  fabricated link in topology: %s\n",
              f.fabricated_link_present() ? "YES (defense failed)"
                                          : "no (blocked)");
  std::printf("  genuine links still healthy: %zu / 4\n",
              ctrl.topology().link_count());

  args.pipeline_stats = true;  // always: the counters are the point
  examples::print_pipeline_stats(ctrl, args);
  examples::print_check_summary(*f.tb);
  return examples::export_observability(obs.get(), f.tb->loop().now(), args)
             ? 0
             : 1;
}
