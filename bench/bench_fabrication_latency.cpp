// Table III corollary — time to fabricate a link per controller profile.
//
// The port-amnesia attacker cannot register a link until the controller
// emits the next LLDP round, so fabrication latency is governed by
// Table III's discovery interval (and the downtime window by the link
// timeout). This measures attack-start -> poisoned-topology for each
// controller the paper profiles.
#include <cstdio>

#include "attack/port_amnesia.hpp"
#include "bench_util.hpp"
#include "scenario/cli.hpp"
#include "scenario/fig9_testbed.hpp"

using namespace tmg;
using namespace tmg::bench;
using namespace tmg::sim::literals;

namespace {

/// Attack-start to fabricated-link registration, averaged over random
/// phases within the discovery cycle.
double mean_fabrication_s(const ctrl::ControllerProfile& profile, int runs) {
  double sum = 0.0;
  for (int r = 0; r < runs; ++r) {
    scenario::TestbedOptions opts = scenario::fig9_options(500 + r);
    opts.controller.profile = profile;
    opts.controller.lldp_timestamps = false;  // plain TopoGuard-era setup
    scenario::Fig9Testbed f = scenario::make_fig9_testbed(std::move(opts));
    f.tb->start(2_s);
    scenario::fig9_warm_hosts(f);
    // Random phase inside the discovery cycle.
    sim::Rng phase_rng = f.tb->fork_rng();
    f.tb->run_for(sim::Duration::nanos(phase_rng.uniform_int(
        0, profile.lldp_interval.count_nanos())));

    attack::PortAmnesiaAttack::Config ac;
    ac.mode = attack::PortAmnesiaAttack::Mode::OutOfBand;
    attack::PortAmnesiaAttack attack{f.tb->loop(), *f.attacker_a,
                                     *f.attacker_b, f.oob, ac};
    const sim::SimTime start = f.tb->loop().now();
    attack.start();
    while (!f.fabricated_link_present() &&
           f.tb->loop().now() - start < 120_s) {
      f.tb->run_for(100_ms);
    }
    sum += (f.tb->loop().now() - start).to_seconds_f();
  }
  return sum / runs;
}

}  // namespace

int main(int argc, char** argv) {
  scenario::parse_cli(argc, argv, {});
  banner("Table III corollary",
         "Controller profile vs. link-fabrication latency");

  Table table({"Controller", "Discovery interval", "Mean attack-start -> "
               "poisoned topology"});
  for (const auto& profile : ctrl::all_profiles()) {
    const double s = mean_fabrication_s(profile, 10);
    table.add_row({profile.name,
                   fmt("%.0f s", profile.lldp_interval.to_seconds_f()),
                   fmt("%.1f s", s)});
  }
  table.print();

  std::printf(
      "\nExpected shape: fabrication latency averages roughly half the\n"
      "discovery interval (the attacker waits for the next LLDP round to\n"
      "relay) — POX/OpenDaylight topologies poison ~3x faster than\n"
      "Floodlight's.\n");
  return 0;
}
