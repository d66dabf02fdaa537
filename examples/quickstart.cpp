// Quickstart: build a two-switch OpenFlow network, start the controller,
// watch link discovery and host learning happen, and route a ping.
//
//   $ ./quickstart
//
// This walks through the public API surface most programs use:
// scenario::Testbed to wire the network, ctrl::Controller services to
// inspect state, attack::Host to generate traffic.
#include <cstdio>

#include "ctrl/host_tracker.hpp"
#include "example_util.hpp"
#include "ctrl/link_discovery.hpp"
#include "ctrl/routing.hpp"
#include "obs/observability.hpp"
#include "scenario/testbed.hpp"

using namespace tmg;
using namespace tmg::sim::literals;

int main(int argc, char** argv) {
  const examples::ExampleArgs args = examples::parse_example_args(
      argc, argv, {.modules = true, .profile = true});
  std::printf("== TopoMirage quickstart ==\n\n");

  // 1. Wire the network: two switches, one inter-switch link, two hosts.
  scenario::TestbedOptions opts;
  opts.seed = 7;
  examples::apply_check_flag(opts, args);
  examples::apply_profile_flag(opts, args);
  scenario::Testbed tb{opts};
  tb.add_switch(0x1);
  tb.add_switch(0x2);
  tb.connect_switches(0x1, 10, 0x2, 10);

  attack::HostConfig alice_cfg;
  alice_cfg.mac = net::MacAddress::host(1);
  alice_cfg.ip = net::Ipv4Address::host(1);
  attack::Host& alice = tb.add_host(0x1, 1, alice_cfg);

  attack::HostConfig bob_cfg;
  bob_cfg.mac = net::MacAddress::host(2);
  bob_cfg.ip = net::Ipv4Address::host(2);
  attack::Host& bob = tb.add_host(0x2, 1, bob_cfg);

  // 2. Attach the observability layer (optional but invaluable) and
  // start the controller: LLDP rounds, echo probes, sweeps begin. Every
  // control-plane event lands in its trace as a "ctrl" instant,
  // interleaved with the pipeline dispatch spans that --obs-out /
  // --trace-out export.
  obs::Observability obs;
  tb.set_observability(&obs);
  examples::apply_modules(tb.controller(), args);
  tb.start(/*warmup=*/1_s);

  std::printf("After %s of warm-up, link discovery found:\n",
              to_string(tb.loop().now()).c_str());
  for (const auto& link : tb.controller().topology().links()) {
    std::printf("  link %s\n", link.to_string().c_str());
  }

  // 3. Hosts announce themselves (ARP) and the HTS learns locations.
  alice.send_arp_request(bob.ip());
  bob.send_arp_request(alice.ip());
  tb.run_for(500_ms);

  std::printf("\nHost Tracking Service bindings:\n");
  for (const auto& rec : tb.controller().host_tracker().hosts_sorted()) {
    std::printf("  %s / %-10s at %s\n", rec.mac.to_string().c_str(),
                rec.ip.to_string().c_str(), rec.loc.to_string().c_str());
  }

  // 4. Route a ping across the network. A host listener watches what
  // alice receives.
  bool replied = false;
  alice.add_listener([&replied](const net::Packet& pkt) {
    if (pkt.icmp() && pkt.icmp()->type == net::IcmpPayload::Type::EchoReply) {
      replied = true;
    }
  });
  alice.send_ping(bob.mac(), bob.ip(), /*ident=*/1, /*seq=*/1);
  tb.run_for(500_ms);

  std::printf("\nalice pinged bob across switches: %s\n",
              replied ? "reply received" : "NO reply");
  std::printf("paths installed by reactive routing: %llu\n",
              static_cast<unsigned long long>(
                  tb.controller().routing().paths_installed()));
  std::printf("flow rules at 0x1: %zu, at 0x2: %zu\n",
              tb.get_switch(0x1).flow_table().size(),
              tb.get_switch(0x2).flow_table().size());

  // 5. The trace kept the control-plane story.
  std::printf("\nLast controller events:\n%s",
              obs.trace().to_console("ctrl", /*last_n=*/8).c_str());
  std::printf("(%llu control-plane events recorded in total)\n",
              static_cast<unsigned long long>(
                  obs.trace().instant_total("ctrl")));

  examples::print_pipeline_stats(tb.controller(), args);
  examples::print_check_summary(tb);
  if (!examples::export_observability(&obs, tb.loop().now(), args)) return 1;
  std::printf("\nDone. Next: run attack_port_amnesia / attack_port_probing\n"
              "to see the paper's attacks against this machinery.\n");
  return 0;
}
