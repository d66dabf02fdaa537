// Ablation — SPHINX flow-counter checking: poll interval and similarity
// threshold vs. blackhole detection latency.
//
// A fabricated link that *drops* transit (instead of faithfully
// bridging it) diverges the per-flow byte counters along the declared
// path. How fast SPHINX notices depends on its stats poll period and
// similarity factor tau — and a faithful MITM is never noticed at all
// (paper Sec. V-A).
#include <cstdio>
#include <optional>

#include "attack/port_amnesia.hpp"
#include "bench_util.hpp"
#include "defense/topoguard_plus.hpp"
#include "scenario/cli.hpp"
#include "scenario/fig9_testbed.hpp"

using namespace tmg;
using namespace tmg::bench;
using namespace tmg::sim::literals;

namespace {

struct Result {
  std::optional<double> detect_after_s;  // traffic start -> first alert
  std::size_t alerts = 0;
};

Result run(sim::Duration poll, double tau, bool blackhole) {
  scenario::TestbedOptions opts = scenario::fig9_options(42);
  opts.controller.authenticate_lldp = false;
  opts.controller.lldp_timestamps = false;
  scenario::Fig9Testbed f = scenario::make_fig9_testbed(std::move(opts));
  defense::SphinxConfig sc;
  sc.stats_poll = poll;
  sc.tau = tau;
  defense::install_sphinx(f.tb->controller(), sc);

  f.tb->start(2_s);
  scenario::fig9_warm_hosts(f);

  attack::PortAmnesiaAttack::Config ac;
  ac.mode = attack::PortAmnesiaAttack::Mode::OutOfBand;
  ac.blackhole_transit = blackhole;
  ac.bridge_transit = !blackhole;
  attack::PortAmnesiaAttack attack{f.tb->loop(), *f.attacker_a,
                                   *f.attacker_b, f.oob, ac};
  attack.start();
  // Wait for the fabricated link, then start the bulk flow.
  while (!f.fabricated_link_present()) f.tb->run_for(1_s);
  f.tb->run_for(6_s);  // let old rules idle out so the flow re-routes

  const sim::SimTime traffic_start = f.tb->loop().now();
  for (int i = 0; i < 120; ++i) {
    f.h1->send_raw(f.h2->mac(), f.h2->ip(), "bulk", 1400);
    f.tb->run_for(250_ms);
  }

  Result result;
  for (const auto& alert : f.tb->controller().alerts().alerts()) {
    if (alert.type != ctrl::AlertType::SphinxFlowInconsistency) continue;
    ++result.alerts;
    if (!result.detect_after_s && alert.time > traffic_start) {
      result.detect_after_s = (alert.time - traffic_start).to_seconds_f();
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  scenario::parse_cli(argc, argv, {});
  banner("Ablation", "SPHINX counter checks vs. blackholing fake link");

  Table table({"Poll period", "tau", "Transit", "First alert after",
               "Total alerts"});
  for (const double tau : {1.2, 1.5, 2.5}) {
    for (const std::int64_t poll_s : {1, 2, 5}) {
      const Result r = run(sim::Duration::seconds(poll_s), tau, true);
      table.add_row({fmt("%.0f s", static_cast<double>(poll_s)),
                     fmt("%.1f", tau), "blackholed",
                     r.detect_after_s ? fmt("%.1f s", *r.detect_after_s)
                                      : "never",
                     fmt_u(r.alerts)});
    }
  }
  // Control: the faithful MITM never diverges the counters.
  const Result faithful = run(1_s, 1.5, false);
  table.add_row({"1 s", "1.5", "bridged faithfully",
                 faithful.detect_after_s ? fmt("%.1f s",
                                               *faithful.detect_after_s)
                                         : "never",
                 fmt_u(faithful.alerts)});
  table.print();

  std::printf(
      "\nExpected shape: blackholing is caught once the upstream counters\n"
      "outrun the byte slack (for a *total* blackhole the downstream\n"
      "counter is zero, so tau is irrelevant and the slack + poll phase\n"
      "dominate); faithful relaying is never caught — the property the\n"
      "paper's MITM depends on (Sec. V-A).\n");
  return 0;
}
