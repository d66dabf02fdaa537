// Table III — Link discovery interval and link timeout per controller.
//
// Runs each controller profile on a live two-switch network, measures
// the observed LLDP emission period, and measures how long a dead link
// survives in the topology after its last verification (the "downtime
// window" port probing exploits scales with these).
#include <cstdio>

#include "bench_util.hpp"
#include "ctrl/link_discovery.hpp"
#include "scenario/cli.hpp"
#include "scenario/testbed.hpp"

using namespace tmg;
using namespace tmg::bench;
using namespace tmg::sim::literals;

namespace {

struct Measured {
  double emission_period_s = 0.0;
  double removal_after_cut_s = 0.0;
};

Measured measure(const ctrl::ControllerProfile& profile) {
  scenario::TestbedOptions opts;
  opts.seed = 42;
  opts.controller.profile = profile;
  scenario::Testbed tb{opts};
  tb.add_switch(0x1);
  tb.add_switch(0x2);
  of::DataLink& wire = tb.connect_switches(0x1, 10, 0x2, 10);
  tb.start(1_s);

  Measured m;
  // Observed emission period: emissions happen in rounds of 2 ports.
  const auto e0 = tb.controller().link_discovery().emissions();
  const auto t0 = tb.loop().now();
  while (tb.controller().link_discovery().emissions() == e0) {
    tb.run_for(100_ms);
  }
  m.emission_period_s = (tb.loop().now() - t0).to_seconds_f() +
                        1.0 - 1.0;  // rounded by the 100ms polling
  // Re-measure from a round boundary for accuracy.
  const auto e1 = tb.controller().link_discovery().emissions();
  const auto t1 = tb.loop().now();
  while (tb.controller().link_discovery().emissions() == e1) {
    tb.run_for(10_ms);
  }
  m.emission_period_s = (tb.loop().now() - t1).to_seconds_f();

  // Starve the link of LLDP (silent in-transit loss, no Port-Down —
  // the worst case for detection) and measure the timeout-path removal.
  wire.set_drop_filter(
      [](const net::Packet& pkt) { return pkt.is_lldp(); });
  const auto cut_at = tb.loop().now();
  while (tb.controller().topology().link_count() > 0) {
    tb.run_for(100_ms);
  }
  m.removal_after_cut_s = (tb.loop().now() - cut_at).to_seconds_f();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  scenario::parse_cli(argc, argv, {});
  banner("Table III", "Link timeout and discovery intervals per controller");
  Table table({"Controller", "Discovery interval (cfg)", "Link timeout (cfg)",
               "Observed emission period", "Dead link removed after"});
  for (const auto& profile : ctrl::all_profiles()) {
    const Measured m = measure(profile);
    table.add_row({profile.name,
                   fmt("%.0f s", profile.lldp_interval.to_seconds_f()),
                   fmt("%.0f s", profile.link_timeout.to_seconds_f()),
                   fmt("%.1f s", m.emission_period_s),
                   fmt("%.1f s", m.removal_after_cut_s)});
  }
  table.print();
  std::printf(
      "\nPaper Table III: Floodlight 15s/35s, POX 5s/10s, OpenDaylight\n"
      "5s/15s. A benign link is only dropped after missing 2-3 discovery\n"
      "rounds (Sec. VIII-A), which bounds LLI false-positive impact.\n");
  return 0;
}
