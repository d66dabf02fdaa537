// Induced-migration kill chain (paper Sec. IV-B, "a more sophisticated
// attacker may induce such movement").
//
// A two-server cloud with an auto-balancing hypervisor. The attacker
// controls (a) a VM co-located with the victim and (b) a network
// position for port probing. Instead of waiting for a migration window,
// the co-located VM saturates the server's resources until the balancer
// live-migrates the victim — and the prober hijacks its identity inside
// the resulting downtime window.
#include <cstdio>

#include "attack/port_probing.hpp"
#include "ctrl/host_tracker.hpp"
#include "example_util.hpp"
#include "defense/topoguard_plus.hpp"
#include "scenario/hypervisor.hpp"
#include "scenario/testbed.hpp"

using namespace tmg;
using namespace tmg::sim::literals;

int main(int argc, char** argv) {
  const examples::ExampleArgs args = examples::parse_example_args(
      argc, argv, {.modules = true, .profile = true});
  std::printf("== Inducing the migration you plan to hijack ==\n\n");

  scenario::TestbedOptions opts;
  examples::apply_check_flag(opts, args);
  examples::apply_profile_flag(opts, args);
  scenario::Testbed tb{opts};
  tb.add_switch(0x1);
  tb.add_switch(0x2);
  tb.connect_switches(0x1, 10, 0x2, 10);
  std::vector<of::DataLink*> server_a = {&tb.add_access_link(0x1, 1),
                                         &tb.add_access_link(0x1, 2)};
  std::vector<of::DataLink*> server_b = {&tb.add_access_link(0x2, 1),
                                         &tb.add_access_link(0x2, 2)};

  scenario::Hypervisor hv{tb.loop(), tb.fork_rng()};
  hv.add_server(1, 1.0, server_a);
  hv.add_server(2, 1.0, server_b);

  attack::HostConfig vcfg;
  vcfg.mac = net::MacAddress::host(1);
  vcfg.ip = net::Ipv4Address::host(1);
  attack::Host& victim = tb.add_host_on(*server_a[0], vcfg);
  victim.detach_link();
  hv.place_vm("victim", victim, 1, {.load = 0.3, .migratable = true});

  attack::HostConfig ncfg;
  ncfg.mac = net::MacAddress::host(0xA1);
  ncfg.ip = net::Ipv4Address::host(161);
  attack::Host& noisy = tb.add_host_on(*server_a[1], ncfg);
  noisy.detach_link();
  hv.place_vm("noisy-neighbor", noisy, 1, {.load = 0.1, .migratable = false});

  attack::HostConfig acfg;
  acfg.mac = net::MacAddress::host(0xA2);
  acfg.ip = net::Ipv4Address::host(162);
  attack::Host& prober_host = tb.add_host(0x2, 5, acfg);

  defense::install_topoguard(tb.controller());
  const auto obs = examples::make_observability(args);
  tb.set_observability(obs.get());
  examples::apply_modules(tb.controller(), args);
  hv.set_migration_listener([&](const std::string& vm,
                                scenario::ServerId from,
                                scenario::ServerId to, sim::Duration d) {
    std::printf("[%7.1fs] hypervisor: live-migrating '%s' server %u -> %u "
                "(downtime %s)\n",
                tb.loop().now().to_seconds_f(), vm.c_str(), from, to,
                to_string(d).c_str());
  });

  hv.start();
  tb.start(1_s);
  victim.send_arp_request(prober_host.ip());
  prober_host.send_arp_request(victim.ip());
  tb.run_for(500_ms);

  std::printf("[%7.1fs] server 1 utilization: %.0f %% (victim + noisy "
              "neighbor idling)\n",
              tb.loop().now().to_seconds_f(),
              100.0 * hv.server_utilization(1));

  attack::PortProbingConfig pc;
  pc.victim_ip = victim.ip();
  attack::PortProbingAttack probe{tb.loop(), tb.fork_rng(), prober_host, pc};
  probe.set_observability(obs.get());
  probe.start();
  std::printf("[%7.1fs] attacker: ARP liveness probing armed (50 ms "
              "cadence)\n",
              tb.loop().now().to_seconds_f());
  tb.run_for(2_s);

  std::printf("[%7.1fs] attacker: co-located VM begins cache-dirtying DoS\n",
              tb.loop().now().to_seconds_f());
  hv.set_load("noisy-neighbor", 0.8);
  tb.run_for(40_s);

  const auto& tl = probe.timeline();
  std::printf("\nOutcome:\n");
  std::printf("  migrations induced:   %llu\n",
              static_cast<unsigned long long>(hv.migrations()));
  std::printf("  identity claimed:     %s\n",
              probe.identity_claimed() ? "YES" : "no");
  if (tl.victim_declared_down && tl.interface_up_as_victim) {
    std::printf("  downtime detected %.1f ms after migration began; victim "
                "impersonated %.1f ms later\n",
                0.0,  // relative framing below
                (*tl.interface_up_as_victim - *tl.victim_declared_down)
                    .to_millis_f());
  }
  const auto rec =
      tb.controller().host_tracker().find(victim.mac());
  if (rec) {
    std::printf("  victim's identity currently bound at %s\n",
                rec->loc.to_string().c_str());
  }
  std::printf(
      "\nTopoGuard raised no alert before the victim resumed: the\n"
      "migration was genuine — the attacker merely chose when it\n"
      "happened (paper Sec. IV-B).\n");
  examples::print_pipeline_stats(tb.controller(), args);
  examples::print_check_summary(tb);
  return examples::export_observability(obs.get(), tb.loop().now(), args)
             ? 0
             : 1;
}
