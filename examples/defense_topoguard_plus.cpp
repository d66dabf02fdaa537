// TOPOGUARD+ deployment walkthrough (paper Sec. VI-VII).
//
// Deploys the full defense stack on the Fig. 9 evaluation testbed,
// shows the LLI calibrating on genuine link latencies, then launches
// the CMM-evasive out-of-band port amnesia attack and prints the alerts
// as they fire.
#include <cstdio>

#include "attack/port_amnesia.hpp"
#include "defense/topoguard_plus.hpp"
#include "example_util.hpp"
#include "scenario/fig9_testbed.hpp"

using namespace tmg;
using namespace tmg::sim::literals;

int main(int argc, char** argv) {
  const examples::ExampleArgs args = examples::parse_example_args(
      argc, argv, {.modules = true, .profile = true});
  std::printf("== Deploying TOPOGUARD+ ==\n\n");

  // The controller must sign LLDP and seal departure timestamps —
  // fig9_options enables both. The invariant checker is opt-in here.
  scenario::TestbedOptions opts = scenario::fig9_options();
  examples::apply_profile_flag(opts, args);
  opts.check_invariants = args.check;
  scenario::Fig9Testbed f = scenario::make_fig9_testbed(opts);
  const defense::TopoGuardPlus tgp =
      defense::install_topoguard_plus(f.tb->controller());
  const auto obs = examples::make_observability(args);
  f.tb->set_observability(obs.get());
  examples::apply_modules(f.tb->controller(), args);

  // Print every alert as the run unfolds.
  f.tb->controller().alerts().subscribe([](const ctrl::Alert& a) {
    std::printf("  [%8.3fs] ALERT %-10s %-24s %s\n", a.time.to_seconds_f(),
                a.module.c_str(), ctrl::to_string(a.type), a.message.c_str());
  });

  f.tb->start(2_s);
  scenario::fig9_warm_hosts(f);

  std::printf("Calibration: one minute of benign operation...\n");
  f.tb->run_for(60_s);
  std::printf("\nLLI state after calibration:\n");
  std::printf("  verified latency samples: %zu\n",
              tgp.lli->measurements().size());
  if (const auto t = tgp.lli->threshold_ms()) {
    std::printf("  anomaly threshold (Q3 + 3*IQR): %.2f ms\n", *t);
  }
  std::printf("  port profile of attacker A's port (0x2:1): %s\n",
              defense::to_string(tgp.topoguard->port_type(f.a_loc)));

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
  std::printf("  LLI detections:        %llu\n",
              static_cast<unsigned long long>(tgp.lli->detections()));
  std::printf("  CMM detections:        %llu\n",
              static_cast<unsigned long long>(tgp.cmm->detections()));
  std::printf("  fabricated link in topology: %s\n",
              f.fabricated_link_present() ? "YES (defense failed)"
                                          : "no (blocked)");
  std::printf("  genuine links still healthy: %zu / 4\n",
              f.tb->controller().topology().link_count());
  examples::print_pipeline_stats(f.tb->controller(), args);
  examples::print_check_summary(*f.tb);
  return examples::export_observability(obs.get(), f.tb->loop().now(), args)
             ? 0
             : 1;
}
