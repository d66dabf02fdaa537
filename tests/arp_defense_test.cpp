// ARP spoofing vs. Host Location Hijacking (paper Sec. III-A.2).
//
// The paper distinguishes HLH from ARP spoofing: different binding
// attacked (MAC-to-port vs. IP-to-MAC), different traffic (arbitrary
// vs. ARP), so "defenses to ARP attacks [are] ineffective against HLH".
// These tests pin that down end-to-end.
#include <gtest/gtest.h>

#include "attack/arp_spoof.hpp"
#include "ctrl/host_tracker.hpp"
#include "defense/arp_inspection.hpp"
#include "scenario/experiments.hpp"
#include "scenario/testbed.hpp"
#include "host_inbox.hpp"

namespace tmg::defense {
namespace {

using namespace tmg::sim::literals;
using ctrl::AlertType;
using scenario::Testbed;
using scenario::TestbedOptions;

scenario::TestbedOptions checked_options() {
  scenario::TestbedOptions opts;
  opts.check_invariants = true;  // runtime invariant checker (src/check)
  return opts;
}

struct ArpNet {
  Testbed tb{checked_options()};
  attack::Host* victim;
  attack::Host* peer;
  attack::Host* attacker;

  ArpNet() {
    tb.add_switch(0x1);
    tb.add_switch(0x2);
    tb.connect_switches(0x1, 10, 0x2, 10);
    attack::HostConfig v;
    v.mac = net::MacAddress::host(1);
    v.ip = net::Ipv4Address::host(1);
    victim = &tb.add_host(0x1, 1, v);
    attack::HostConfig p;
    p.mac = net::MacAddress::host(2);
    p.ip = net::Ipv4Address::host(2);
    peer = &tb.add_host(0x1, 2, p);
    attack::HostConfig a;
    a.mac = net::MacAddress::host(0xA);
    a.ip = net::Ipv4Address::host(10);
    attacker = &tb.add_host(0x2, 1, a);
  }

  void warm() {
    victim->send_arp_request(peer->ip());
    peer->send_arp_request(victim->ip());
    attacker->send_arp_request(victim->ip());
    tb.run_for(500_ms);
  }

  attack::ArpSpoofAttack::Config spoof_cfg() {
    attack::ArpSpoofAttack::Config cfg;
    cfg.victim_ip = victim->ip();
    cfg.target_mac = peer->mac();
    cfg.target_ip = peer->ip();
    cfg.period = 200_ms;
    return cfg;
  }
};

TEST(ArpSpoof, PoisonsPeerCacheWithoutDefense) {
  ArpNet net;
  net.tb.start(1_s);
  net.warm();
  ASSERT_EQ(net.peer->arp_lookup(net.victim->ip()), net.victim->mac());

  attack::ArpSpoofAttack spoof{net.tb.loop(), *net.attacker,
                               net.spoof_cfg()};
  spoof.start();
  net.tb.run_for(1_s);
  // Peer's cache now maps the victim's IP to the attacker's MAC.
  EXPECT_EQ(net.peer->arp_lookup(net.victim->ip()), net.attacker->mac());
  EXPECT_GE(spoof.forged_replies(), 2u);
}

TEST(ArpSpoof, RedirectsResolvedTraffic) {
  ArpNet net;
  net.tb.start(1_s);
  net.warm();
  attack::ArpSpoofAttack spoof{net.tb.loop(), *net.attacker,
                               net.spoof_cfg()};
  spoof.start();
  net.tb.run_for(1_s);
  // The peer resolves the victim's IP and pings "it": the echo request
  // lands on the attacker.
  const testutil::Inbox attacker_rx{*net.attacker};
  net.peer->send_resolved(
      net.victim->ip(),
      net::make_icmp_echo(net.peer->mac(), net.peer->ip(), net::MacAddress{},
                          net.victim->ip(), 77, 1));
  net.tb.run_for(500_ms);
  bool attacker_got_it = false;
  for (const auto& p : attacker_rx.packets()) {
    if (p.icmp() && p.icmp()->ident == 77) attacker_got_it = true;
  }
  EXPECT_TRUE(attacker_got_it);
}

TEST(ArpSpoof, BudgetStopsAttack) {
  ArpNet net;
  net.tb.start(1_s);
  auto cfg = net.spoof_cfg();
  cfg.budget = 3;
  attack::ArpSpoofAttack spoof{net.tb.loop(), *net.attacker, cfg};
  spoof.start();
  net.tb.run_for(5_s);
  EXPECT_EQ(spoof.forged_replies(), 3u);
}

TEST(Dai, DeploysPuntRules) {
  ArpNet net;
  DynamicArpInspection& dai = install_arp_inspection(net.tb.controller());
  net.tb.start(1_s);
  dai.deploy();
  net.tb.run_for(100_ms);
  bool found = false;
  for (const auto& e : net.tb.get_switch(0x1).flow_table().entries()) {
    if (e.match.ethertype == net::EtherType::Arp && e.priority == 500 &&
        e.action.kind == of::FlowAction::Kind::ToController) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Dai, BlocksCachePoisoning) {
  ArpNet net;
  DynamicArpInspection& dai = install_arp_inspection(net.tb.controller());
  net.tb.start(1_s);
  dai.deploy();
  net.warm();
  ASSERT_EQ(net.peer->arp_lookup(net.victim->ip()), net.victim->mac());

  attack::ArpSpoofAttack spoof{net.tb.loop(), *net.attacker,
                               net.spoof_cfg()};
  spoof.start();
  net.tb.run_for(2_s);
  // The forged replies were punted, inspected, and dropped: the peer's
  // cache still holds the genuine mapping and the violation is logged.
  EXPECT_EQ(net.peer->arp_lookup(net.victim->ip()), net.victim->mac());
  EXPECT_GE(dai.violations(), 2u);
  EXPECT_TRUE(
      net.tb.controller().alerts().any(AlertType::ArpInspectionViolation));
}

TEST(Dai, GenuineArpPasses) {
  ArpNet net;
  DynamicArpInspection& dai = install_arp_inspection(net.tb.controller());
  net.tb.start(1_s);
  dai.deploy();
  net.warm();
  const testutil::Inbox peer_rx{*net.peer};
  net.peer->send_arp_request(net.victim->ip());
  net.tb.run_for(300_ms);
  bool replied = false;
  for (const auto& p : peer_rx.packets()) {
    if (p.arp() && p.arp()->op == net::ArpPayload::Op::Reply) replied = true;
  }
  EXPECT_TRUE(replied);
  EXPECT_GT(dai.inspected(), 0u);
  EXPECT_EQ(net.tb.controller().alerts().count(
                AlertType::ArpInspectionViolation),
            0u);
}

TEST(Dai, IneffectiveAgainstHostLocationHijacking) {
  // The paper's Sec. III-A.2 claim, end to end: deploy DAI (plus
  // TopoGuard) and run the full port-probing hijack. The attacker's
  // gratuitous ARP carries the victim's *consistent* IP/MAC pair, so
  // DAI sees nothing wrong — the corrupted binding is MAC-to-port.
  scenario::Fig2Testbed f = make_fig2_testbed(
      scenario::suite_options(scenario::DefenseSuite::TopoGuard, 7));
  scenario::install_suite(f.tb->controller(),
                          scenario::DefenseSuite::TopoGuard);
  DynamicArpInspection& dai = install_arp_inspection(f.tb->controller());
  f.tb->start(2_s);
  dai.deploy();
  scenario::fig2_warm_hosts(f);

  attack::PortProbingConfig pc;
  pc.victim_ip = f.victim_ip;
  attack::PortProbingAttack attack{f.tb->loop(), f.tb->fork_rng(),
                                   *f.attacker, pc};
  attack.start();
  f.tb->run_for(2_s);
  f.victim->detach_link();
  f.tb->run_for(2_s);

  EXPECT_TRUE(attack.identity_claimed());
  const auto rec = f.tb->controller().host_tracker().find(f.victim_mac);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->loc, f.attacker_loc);  // hijack succeeded through DAI
  EXPECT_EQ(f.tb->controller().alerts().count(
                AlertType::ArpInspectionViolation),
            0u);
}

}  // namespace
}  // namespace tmg::defense
