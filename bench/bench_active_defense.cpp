// Active defense evaluation (paper Sec. X: "active, dynamic defenses
// will be necessary to mitigate topology tampering").
//
// Pits the passive TOPOGUARD+ stack and the active link verifier
// against out-of-band port amnesia across progressively faster relay
// channels. Both ultimately rest on latency evidence, but the active
// verifier's min-of-K challenge probing pushes the detection cliff down
// from the jitter envelope (Q3+3*IQR over bursty history) to just above
// the nominal wire latency.
#include <cstdio>

#include "attack/port_amnesia.hpp"
#include "bench_util.hpp"
#include "defense/active_probe.hpp"
#include "defense/topoguard_plus.hpp"
#include "scenario/cli.hpp"
#include "scenario/fig9_testbed.hpp"

using namespace tmg;
using namespace tmg::bench;
using namespace tmg::sim::literals;

namespace {

enum class Stack { TopoGuardPlus, ActiveProbe };

struct Outcome {
  bool link_registered = false;
  std::size_t real_links = 0;  // genuine links admitted (sanity: 4)
  std::size_t alerts = 0;
};

Outcome run(Stack stack, double channel_ms) {
  scenario::TestbedOptions opts = scenario::fig9_options(42);
  if (stack == Stack::ActiveProbe) {
    opts.controller.authenticate_lldp = false;
    opts.controller.lldp_timestamps = false;  // needs no TLV support
  }
  scenario::Fig9Testbed f = scenario::make_fig9_testbed(std::move(opts));
  if (stack == Stack::TopoGuardPlus) {
    defense::install_topoguard_plus(f.tb->controller());
  } else {
    defense::ActiveProbeConfig ap;
    // min-of-K probing needs only jitter-floor margin over the nominal
    // 5 ms wires, not the whole micro-burst envelope.
    ap.probes = 5;
    ap.max_link_latency = sim::Duration::from_millis_f(5.5);
    defense::install_active_probe(f.tb->controller(), ap);
  }
  f.tb->start(2_s);
  scenario::fig9_warm_hosts(f);
  f.tb->run_for(60_s);

  attack::OobChannelConfig cc;
  cc.latency = sim::Duration::from_millis_f(channel_ms);
  cc.codec_overhead = sim::Duration::from_millis_f(channel_ms / 10.0);
  cc.jitter = sim::Duration::from_millis_f(channel_ms / 20.0);
  attack::OutOfBandChannel& channel = f.tb->add_oob_channel(cc);

  attack::PortAmnesiaAttack::Config ac;
  ac.preposition_flap = true;
  attack::PortAmnesiaAttack attack{f.tb->loop(), *f.attacker_a,
                                   *f.attacker_b, &channel, ac};
  attack.start();

  Outcome out;
  for (int i = 0; i < 90; ++i) {
    f.tb->run_for(1_s);
    if (f.fabricated_link_present()) out.link_registered = true;
  }
  out.alerts = f.tb->controller().alerts().count();
  out.real_links = f.tb->controller().topology().link_count() -
                   (f.fabricated_link_present() ? 1 : 0);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  scenario::parse_cli(argc, argv, {});
  banner("Sec. X", "Passive (TOPOGUARD+) vs. active link verification");

  Table table({"Relay channel (one-way, ms)", "TOPOGUARD+ stops it",
               "ActiveProbe stops it", "Genuine links intact"});
  for (const double ms : {10.0, 5.0, 2.5, 1.0, 0.2}) {
    const Outcome passive = run(Stack::TopoGuardPlus, ms);
    const Outcome active = run(Stack::ActiveProbe, ms);
    table.add_row({fmt("%.1f", ms),
                   passive.link_registered ? "NO (poisoned)" : "yes",
                   active.link_registered ? "NO (poisoned)" : "yes",
                   fmt_u(passive.real_links) + "/4 and " +
                       fmt_u(active.real_links) + "/4"});
  }
  table.print();

  std::printf(
      "\nExpected shape: both stop the paper's 802.11-class relay; as the\n"
      "channel approaches wire speed the passive IQR fence (sitting above\n"
      "the micro-burst envelope, ~6-7 ms here) goes blind first, while\n"
      "min-of-K challenge probing holds until the relay's *added* latency\n"
      "sinks under the measurement noise floor (5.5 ms bound on 5 ms\n"
      "wires here). No latency\n"
      "detector survives a true wire-speed relay — the paper's rationale\n"
      "for scoping hardware relays out (Sec. VI) and for defense in\n"
      "depth.\n");
  return 0;
}
