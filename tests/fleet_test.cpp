// Fleet-scale testbed, background traffic, and driver determinism
// (src/scenario/fleet.*, src/scenario/background_traffic.*).
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "ctrl/controller.hpp"
#include "ctrl/host_tracker.hpp"
#include "ctrl/routing.hpp"
#include "ids/behavior_profile.hpp"
#include "net/packet.hpp"
#include "scenario/fleet.hpp"

namespace tmg::scenario {
namespace {

using sim::Duration;

FleetTestbedConfig small_fat_tree(std::uint64_t seed = 42) {
  FleetTestbedConfig cfg;
  cfg.topology.family = topo::TopoFamily::FatTree;
  cfg.topology.k = 4;  // 20 switches, 16 attachments
  cfg.spare_access_links = 4;
  cfg.options.seed = seed;
  return cfg;
}

TEST(FleetTestbed, InstantiatesGeneratedFabricAndDiscoversIt) {
  net::reset_trace_ids();
  FleetTestbed f = make_fleet_testbed(small_fat_tree());
  EXPECT_EQ(f.topo.switch_count(), 20u);
  EXPECT_EQ(f.population.size(), 16u);  // every attachment is a host
  EXPECT_EQ(f.spare_links.size(), 4u);
  EXPECT_NE(f.victim_loc.dpid, f.attacker_loc.dpid);
  EXPECT_NE(f.attacker_loc.dpid, f.attacker_b_loc.dpid);

  f.tb->start(Duration::seconds(2));
  // Link discovery must converge on exactly the generated fabric.
  EXPECT_EQ(f.tb->controller().topology().link_count(),
            f.topo.graph.link_count());
}

TEST(FleetTestbed, WarmRegistersWholePopulationWithHts) {
  net::reset_trace_ids();
  FleetTestbed f = make_fleet_testbed(small_fat_tree());
  f.tb->start(Duration::seconds(2));
  fleet_warm_hosts(f);
  const ctrl::HostTrackingService& hts = f.tb->controller().host_tracker();
  EXPECT_EQ(hts.host_count(), f.population.size());
  for (std::size_t i = 0; i < f.population.size(); ++i) {
    const auto rec = hts.find(f.population[i]->mac());
    ASSERT_TRUE(rec.has_value()) << "host " << i << " never learned";
    EXPECT_EQ(rec->loc.dpid, f.topo.hosts[i].dpid);
    EXPECT_EQ(rec->loc.port, f.topo.hosts[i].port);
  }
}

TEST(BackgroundTraffic, GeneratesFlowsChurnAndMobility) {
  net::reset_trace_ids();
  FleetTestbed f = make_fleet_testbed(small_fat_tree());
  f.tb->start(Duration::seconds(2));
  fleet_warm_hosts(f);

  BackgroundTrafficConfig bc;
  bc.mean_flow_interarrival = Duration::millis(10);
  bc.arp_churn_period = Duration::millis(250);
  bc.mobility_period = Duration::millis(500);
  BackgroundTraffic bg{*f.tb, f.tb->fork_rng(), bc};
  fleet_attach_background(f, bg);
  bg.start();
  f.tb->run_for(Duration::seconds(5));
  bg.stop();

  const BackgroundTraffic::Stats& s = bg.stats();
  EXPECT_GT(s.flows_started, 100u);
  EXPECT_EQ(s.packets_offered, s.flows_started * 4);
  EXPECT_GT(s.arp_announcements, 10u);
  EXPECT_GT(s.migrations, 4u);
  // Migrations never displace the role hosts.
  const ctrl::HostTrackingService& hts = f.tb->controller().host_tracker();
  const auto victim = hts.find(f.victim->mac());
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->loc.dpid, f.victim_loc.dpid);
  EXPECT_EQ(victim->loc.port, f.victim_loc.port);
  EXPECT_EQ(hts.host_count(), f.population.size());
}

TEST(BackgroundTraffic, ByteIdenticalAcrossRuns) {
  const auto run = [] {
    net::reset_trace_ids();
    FleetTestbed f = make_fleet_testbed(small_fat_tree(7));
    f.tb->start(Duration::seconds(2));
    fleet_warm_hosts(f);
    BackgroundTrafficConfig bc;
    bc.mean_flow_interarrival = Duration::millis(5);
    bc.arp_churn_period = Duration::millis(200);
    bc.mobility_period = Duration::millis(400);
    BackgroundTraffic bg{*f.tb, f.tb->fork_rng(), bc};
    fleet_attach_background(f, bg);
    bg.start();
    f.tb->run_for(Duration::seconds(3));
    bg.stop();
    std::string fingerprint;
    for (const auto& rec : f.tb->controller().host_tracker().hosts_sorted()) {
      fingerprint += rec.mac.to_string() + "@" +
                     std::to_string(rec.loc.dpid) + ":" +
                     std::to_string(rec.loc.port) + ";";
    }
    fingerprint += "|f" + std::to_string(bg.stats().flows_started);
    fingerprint += "|m" + std::to_string(bg.stats().migrations);
    fingerprint += "|e" + std::to_string(f.tb->loop().events_executed());
    return fingerprint;
  };
  EXPECT_EQ(run(), run());
}

TEST(FleetHijack, WinsRaceOnUndefendedFleetUnderLoad) {
  net::reset_trace_ids();
  FleetHijackConfig cfg;
  cfg.topology.k = 4;
  cfg.suite = DefenseSuite::None;
  cfg.seed = 3;
  cfg.settle_window = Duration::seconds(3);
  cfg.victim_downtime = Duration::seconds(3);
  const FleetHijackOutcome out = run_fleet_hijack(cfg);
  EXPECT_TRUE(out.hijack_succeeded);
  ASSERT_TRUE(out.down_to_confirmed_ms.has_value());
  EXPECT_GT(*out.down_to_confirmed_ms, 0.0);
  EXPECT_LT(*out.down_to_confirmed_ms, 3000.0);  // won before rejoin
  EXPECT_EQ(out.hosts_tracked, 16u);
  EXPECT_GT(out.background.flows_started, 0u);
  EXPECT_EQ(out.invariant_violations, 0u);
}

TEST(FleetHijack, OutcomeIsDeterministic) {
  FleetHijackConfig cfg;
  cfg.topology.k = 4;
  cfg.suite = DefenseSuite::TopoGuard;
  cfg.seed = 11;
  cfg.settle_window = Duration::seconds(2);
  cfg.victim_downtime = Duration::seconds(2);
  const auto run = [&cfg] {
    net::reset_trace_ids();
    return run_fleet_hijack(cfg);
  };
  const FleetHijackOutcome a = run();
  const FleetHijackOutcome b = run();
  EXPECT_EQ(a.hijack_succeeded, b.hijack_succeeded);
  EXPECT_EQ(a.down_to_confirmed_ms, b.down_to_confirmed_ms);
  EXPECT_EQ(a.down_to_iface_up_ms, b.down_to_iface_up_ms);
  EXPECT_EQ(a.hosts_tracked, b.hosts_tracked);
  EXPECT_EQ(a.alerts_total, b.alerts_total);
  EXPECT_EQ(a.background.flows_started, b.background.flows_started);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

// The scale ceiling: a thousand-switch fabric must be attackable at
// all. k=32 instantiates 1,280 switches and 16,384 fabric links; the
// population is capped so the test exercises fabric scale, not host
// count (bench_fleet's k=16 cell covers the full-population case).
TEST(FleetHijack, RunsOnThousandSwitchFabric) {
  net::reset_trace_ids();
  FleetHijackConfig cfg;
  cfg.topology.k = 32;
  cfg.max_hosts = 64;
  cfg.suite = DefenseSuite::None;
  cfg.seed = 9;
  cfg.background_on = false;
  cfg.settle_window = Duration::seconds(2);
  cfg.victim_downtime = Duration::seconds(2);
  cfg.check_invariants = false;
  const FleetHijackOutcome out = run_fleet_hijack(cfg);
  EXPECT_TRUE(out.hijack_succeeded);
  EXPECT_EQ(out.hosts_tracked, 64u);
}

// The undefended classic relay on a fat-tree of arity k, with the
// invariant checker on. At k=8 (80 switches) the checker's path-tree
// audit, index-based host tracking and the routing flood bitset all run
// past one 64-bit word, against a fabricated link.
void expect_classic_relay_fabricates_link(int k) {
  SCOPED_TRACE("k=" + std::to_string(k));
  net::reset_trace_ids();
  FleetLinkAttackConfig cfg;
  cfg.topology.k = k;
  cfg.kind = LinkAttackKind::ClassicRelay;
  cfg.suite = DefenseSuite::None;
  cfg.seed = 5;
  cfg.benign_window = Duration::seconds(4);
  cfg.attack_window = Duration::seconds(34);
  const FleetLinkAttackOutcome out = run_fleet_link_attack(cfg);
  EXPECT_TRUE(out.link_registered);
  EXPECT_GT(out.lldp_relayed, 0u);
  EXPECT_EQ(out.hosts_tracked, static_cast<std::size_t>(k * k * k / 4));
  EXPECT_GT(out.background.flows_started, 0u);
  EXPECT_EQ(out.invariant_violations, 0u);
}

TEST(FleetLinkAttack, ClassicRelayFabricatesLinkOnUndefendedFleet) {
  expect_classic_relay_fabricates_link(4);
}

TEST(FleetLinkAttack, ClassicRelayFabricatesLinkOnUndefendedFleetAtK8) {
  expect_classic_relay_fabricates_link(8);
}

// The routing flood bitset at two words: on a k=8 fat-tree (80 switch
// indices) one broadcast ARP makes every switch flood exactly once. The
// ARP asks for an address nobody holds, so no reply adds Packet-Outs.
TEST(FleetRouting, BroadcastFloodsOncePerSwitchAcrossTwoBitsetWords) {
  static_assert(
      std::is_same_v<std::variant_alternative_t<0, of::CtrlToSwitch>,
                     of::PacketOut>);
  net::reset_trace_ids();
  FleetTestbedConfig cfg = small_fat_tree();
  cfg.topology.k = 8;
  FleetTestbed f = make_fleet_testbed(cfg);
  ASSERT_EQ(f.topo.switch_count(), 80u);
  f.tb->start(Duration::seconds(2));
  ctrl::Controller& c = f.tb->controller();
  const std::vector<of::Dpid> dpids = c.switch_dpids();
  ASSERT_EQ(dpids.size(), 80u);
  const auto packet_outs = [&](of::Dpid dpid) {
    return f.tb->control_channel(dpid).to_switch_counts()[0];
  };
  std::vector<std::uint64_t> before;
  for (const of::Dpid dpid : dpids) before.push_back(packet_outs(dpid));
  const std::uint64_t floods_before = c.routing().floods();

  f.victim->send_arp_request(net::Ipv4Address{10, 254, 254, 1});
  f.tb->run_for(Duration::millis(300));

  EXPECT_EQ(c.routing().floods(), floods_before + 1);
  for (std::size_t i = 0; i < dpids.size(); ++i) {
    EXPECT_EQ(packet_outs(dpids[i]) - before[i], 1u)
        << "switch " << dpids[i];
  }
}

TEST(FleetLinkAttack, FlowRuleRelayFabricatesLinkOnFleetFabric) {
  net::reset_trace_ids();
  FleetLinkAttackConfig cfg;
  cfg.topology.k = 4;
  cfg.kind = LinkAttackKind::FlowRuleRelay;
  cfg.suite = DefenseSuite::None;
  cfg.seed = 5;
  cfg.benign_window = Duration::seconds(4);
  cfg.attack_window = Duration::seconds(34);
  const FleetLinkAttackOutcome out = run_fleet_link_attack(cfg);
  // The spliced edge switch launders genuine LLDP between its two
  // uplinks, so discovery registers a direct aggregation-to-aggregation
  // link that does not exist in the generated fabric.
  EXPECT_TRUE(out.link_registered);
  EXPECT_TRUE(out.link_present_at_end);
  EXPECT_GT(out.lldp_relayed, 0u);
  EXPECT_EQ(out.invariant_violations, 0u);
}

TEST(FleetLinkAttack, TopoGuardDetectsRelayOnFleet) {
  net::reset_trace_ids();
  FleetLinkAttackConfig cfg;
  cfg.topology.k = 4;
  cfg.kind = LinkAttackKind::ClassicRelay;
  cfg.suite = DefenseSuite::TopoGuard;
  cfg.seed = 5;
  cfg.benign_window = Duration::seconds(4);
  cfg.attack_window = Duration::seconds(34);
  const FleetLinkAttackOutcome out = run_fleet_link_attack(cfg);
  EXPECT_TRUE(out.detected());
  EXPECT_GT(out.alerts_topoguard, 0u);
  EXPECT_FALSE(out.link_registered);
}

// The fleet configs are the paper configs, so the anomaly IDS hooks
// work on a generated fabric too: train on a clean fabric run, then
// score a classic relay against that baseline.
TEST(FleetLinkAttack, AnomalyIdsScoresRelayOnFleet) {
  FleetLinkAttackConfig cfg;
  cfg.topology.k = 4;
  cfg.kind = LinkAttackKind::ClassicRelay;
  cfg.seed = 5;
  cfg.benign_window = Duration::seconds(4);
  cfg.attack_window = Duration::seconds(34);

  ids::ProfileTrainer trainer;
  FleetLinkAttackConfig clean = cfg;
  clean.attack_enabled = false;
  clean.anomaly_trainer = &trainer;
  net::reset_trace_ids();
  (void)run_fleet_link_attack(clean);
  const ids::BehaviorProfile baseline = trainer.finalize();
  ASSERT_GT(baseline.events, 0u);

  cfg.anomaly_profile = &baseline;
  net::reset_trace_ids();
  const FleetLinkAttackOutcome out = run_fleet_link_attack(cfg);
  EXPECT_TRUE(out.link_registered);
  EXPECT_GT(out.anomaly.scored, 0u);
  EXPECT_EQ(out.invariant_violations, 0u);
}

}  // namespace
}  // namespace tmg::scenario
