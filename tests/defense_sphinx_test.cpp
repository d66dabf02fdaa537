// Tests for the SPHINX surrogate: identifier-binding conflicts, flow
// graphs from trusted Flow-Mods, counter-consistency, waypoint checks.
#include <gtest/gtest.h>

#include <memory>

#include "ctrl/host_tracker.hpp"
#include "defense/topoguard_plus.hpp"
#include "scenario/testbed.hpp"

namespace tmg::defense {
namespace {

using namespace tmg::sim::literals;
using ctrl::AlertType;
using scenario::Testbed;
using scenario::TestbedOptions;

struct SphinxNet {
  Testbed tb;
  attack::Host* h1;
  attack::Host* h2;
  of::DataLink* wire;
  Sphinx* sphinx;

  explicit SphinxNet(SphinxConfig cfg = {}) : tb{TestbedOptions{}} {
    tb.add_switch(0x1);
    tb.add_switch(0x2);
    wire = &tb.connect_switches(0x1, 10, 0x2, 10);
    attack::HostConfig c1;
    c1.mac = net::MacAddress::host(1);
    c1.ip = net::Ipv4Address::host(1);
    h1 = &tb.add_host(0x1, 1, c1);
    attack::HostConfig c2;
    c2.mac = net::MacAddress::host(2);
    c2.ip = net::Ipv4Address::host(2);
    h2 = &tb.add_host(0x2, 1, c2);
    sphinx = &install_sphinx(tb.controller(), cfg);
  }
};

// ---------------- Identifier binding ----------------

TEST(SphinxBinding, ConflictWhenBothLocationsLive) {
  SphinxNet net;
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(100_ms);
  // h2 spoofs h1's MAC while h1's binding is fresh (< conflict window).
  net.h1->send_arp_request(net.h2->ip());  // refresh h1's liveness
  net.h2->send(net::make_raw(net.h1->mac(), net.h1->ip(), net.h2->mac(),
                             net.h2->ip(), "spoof", 64));
  net.tb.run_for(200_ms);
  EXPECT_TRUE(
      net.tb.controller().alerts().any(AlertType::SphinxIdentifierConflict));
  EXPECT_GE(net.sphinx->conflicts_detected(), 1u);
}

TEST(SphinxBinding, QuiescentMoveRaisesNothing) {
  // The race the Port Probing attack wins: the old location has been
  // silent longer than the conflict window, so the re-binding looks
  // like an ordinary move.
  SphinxNet net;
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(100_ms);
  net.h1->set_interface(false);  // victim silent/offline
  net.tb.run_for(2_s);           // > conflict window (1s)
  const auto before = net.tb.controller().alerts().count();
  net.h2->send(net::make_raw(net.h1->mac(), net.h1->ip(), net.h2->mac(),
                             net.h2->ip(), "hijack", 64));
  net.tb.run_for(200_ms);
  EXPECT_EQ(net.tb.controller().alerts().count(), before);
}

TEST(SphinxBinding, OscillationAfterVictimRejoins) {
  SphinxNet net;
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(100_ms);
  net.h1->set_interface(false);
  net.tb.run_for(2_s);
  // Attacker claims the identity and keeps it fresh.
  net.h2->send(net::make_raw(net.h1->mac(), net.h1->ip(), net.h2->mac(),
                             net.h2->ip(), "hijack", 64));
  net.tb.run_for(200_ms);
  // Victim comes back and talks: two live locations for one MAC.
  net.h1->set_interface(true);
  net.h2->send(net::make_raw(net.h1->mac(), net.h1->ip(), net.h2->mac(),
                             net.h2->ip(), "persist", 64));
  net.tb.run_for(50_ms);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(200_ms);
  EXPECT_TRUE(
      net.tb.controller().alerts().any(AlertType::SphinxIdentifierConflict));
}

TEST(SphinxBinding, BlockModeVetoes) {
  SphinxConfig cfg;
  cfg.block = true;
  SphinxNet net{cfg};
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(50_ms);
  net.h1->send_arp_request(net.h2->ip());  // keep binding hot
  net.h2->send(net::make_raw(net.h1->mac(), net.h1->ip(), net.h2->mac(),
                             net.h2->ip(), "spoof", 64));
  net.tb.run_for(200_ms);
  const auto rec = net.tb.controller().host_tracker().find(net.h1->mac());
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->loc, (of::Location{0x1, 1}));
}

// ---------------- Flow graphs & counters (direct hook feeding) ----------

struct SphinxHarness {
  Testbed tb{TestbedOptions{}};
  Sphinx sphinx{tb.controller(), SphinxConfig{}};

  SphinxHarness() { tb.add_switch(0x1); }

  static of::FlowMod output_mod(net::MacAddress dst, of::PortNo port) {
    of::FlowMod fm;
    fm.match.dst_mac = dst;
    fm.action = of::FlowAction::output(port);
    return fm;
  }

  static of::FlowStatsReply stats(of::Dpid dpid, net::MacAddress dst,
                                  std::uint64_t bytes) {
    of::FlowStatsReply r;
    r.dpid = dpid;
    of::FlowStatsEntry e;
    e.match.dst_mac = dst;
    e.byte_count = bytes;
    r.entries.push_back(e);
    return r;
  }
};

TEST(SphinxCounters, ConsistentCountersRaiseNothing) {
  SphinxHarness h;
  const auto dst = net::MacAddress::host(9);
  h.sphinx.on_flow_mod(0x1, SphinxHarness::output_mod(dst, 2));
  h.sphinx.on_flow_mod(0x2, SphinxHarness::output_mod(dst, 3));
  h.sphinx.on_flow_stats(SphinxHarness::stats(0x1, dst, 100'000));
  h.sphinx.on_flow_stats(SphinxHarness::stats(0x2, dst, 98'000));
  EXPECT_FALSE(
      h.tb.controller().alerts().any(AlertType::SphinxFlowInconsistency));
}

TEST(SphinxCounters, BlackholeDivergenceAlerts) {
  SphinxHarness h;
  const auto dst = net::MacAddress::host(9);
  h.sphinx.on_flow_mod(0x1, SphinxHarness::output_mod(dst, 2));
  h.sphinx.on_flow_mod(0x2, SphinxHarness::output_mod(dst, 3));
  h.sphinx.on_flow_stats(SphinxHarness::stats(0x1, dst, 500'000));
  h.sphinx.on_flow_stats(SphinxHarness::stats(0x2, dst, 10'000));
  EXPECT_TRUE(
      h.tb.controller().alerts().any(AlertType::SphinxFlowInconsistency));
}

TEST(SphinxCounters, SmallFlowsWithinSlackIgnored) {
  SphinxHarness h;
  const auto dst = net::MacAddress::host(9);
  h.sphinx.on_flow_mod(0x1, SphinxHarness::output_mod(dst, 2));
  h.sphinx.on_flow_mod(0x2, SphinxHarness::output_mod(dst, 3));
  // A couple of in-flight MTUs of skew on a tiny flow: not anomalous.
  h.sphinx.on_flow_stats(SphinxHarness::stats(0x1, dst, 4'000));
  h.sphinx.on_flow_stats(SphinxHarness::stats(0x2, dst, 0));
  EXPECT_FALSE(
      h.tb.controller().alerts().any(AlertType::SphinxFlowInconsistency));
}

TEST(SphinxCounters, SingleWaypointNeverChecked) {
  SphinxHarness h;
  const auto dst = net::MacAddress::host(9);
  h.sphinx.on_flow_mod(0x1, SphinxHarness::output_mod(dst, 2));
  h.sphinx.on_flow_stats(SphinxHarness::stats(0x1, dst, 1'000'000));
  EXPECT_FALSE(
      h.tb.controller().alerts().any(AlertType::SphinxFlowInconsistency));
}

TEST(SphinxCounters, DeleteClearsFlowGraph) {
  SphinxHarness h;
  const auto dst = net::MacAddress::host(9);
  h.sphinx.on_flow_mod(0x1, SphinxHarness::output_mod(dst, 2));
  h.sphinx.on_flow_mod(0x2, SphinxHarness::output_mod(dst, 3));
  of::FlowMod del;
  del.command = of::FlowMod::Command::DeleteMatching;
  del.match.dst_mac = dst;
  h.sphinx.on_flow_mod(0x1, del);
  h.sphinx.on_flow_stats(SphinxHarness::stats(0x1, dst, 500'000));
  h.sphinx.on_flow_stats(SphinxHarness::stats(0x2, dst, 0));
  EXPECT_FALSE(
      h.tb.controller().alerts().any(AlertType::SphinxFlowInconsistency));
}

TEST(SphinxCounters, FlowModsWithoutDstMacIgnored) {
  SphinxHarness h;
  of::FlowMod fm;  // wildcard match
  fm.action = of::FlowAction::output(1);
  h.sphinx.on_flow_mod(0x1, fm);  // must not crash or create graphs
  of::FlowStatsReply r;
  r.dpid = 0x1;
  h.sphinx.on_flow_stats(r);
  EXPECT_EQ(h.tb.controller().alerts().count(), 0u);
}

// ---------------- Waypoint deviation ----------------

TEST(SphinxWaypoints, OffPathTransitPacketAlerts) {
  SphinxNet net;
  net.tb.start(1_s);  // discovers the inter-switch link
  const auto dst = net.h2->mac();
  // Declared path: only switch 0x1 forwards to dst.
  net.sphinx->on_flow_mod(0x1, SphinxHarness::output_mod(dst, 10));
  // A packet for dst surfaces at switch 0x2's *switch-internal* port,
  // which is not a declared waypoint.
  of::PacketIn pi;
  pi.dpid = 0x2;
  pi.in_port = 10;
  pi.packet = std::make_shared<const net::Packet>(net::make_raw(
      net.h1->mac(), net.h1->ip(), dst, net.h2->ip(), "transit", 64));
  (void)net.sphinx->on_packet_in(
      pi, *net.tb.controller().topology().switch_index(pi.dpid));
  EXPECT_TRUE(
      net.tb.controller().alerts().any(AlertType::SphinxWaypointChange));
}

TEST(SphinxWaypoints, OnPathPacketSilent) {
  SphinxNet net;
  net.tb.start(1_s);
  const auto dst = net.h2->mac();
  net.sphinx->on_flow_mod(0x2, SphinxHarness::output_mod(dst, 1));
  of::PacketIn pi;
  pi.dpid = 0x2;
  pi.in_port = 10;
  pi.packet = std::make_shared<const net::Packet>(net::make_raw(
      net.h1->mac(), net.h1->ip(), dst, net.h2->ip(), "transit", 64));
  (void)net.sphinx->on_packet_in(
      pi, *net.tb.controller().topology().switch_index(pi.dpid));
  EXPECT_FALSE(
      net.tb.controller().alerts().any(AlertType::SphinxWaypointChange));
}

// ---------------- Link symmetry (port-counter extension) ----------------

TEST(SphinxSymmetry, HealthyLinkStaysQuiet) {
  SphinxConfig cfg;
  cfg.check_link_symmetry = true;
  SphinxNet net{cfg};
  net.tb.start(2_s);
  net.h1->send_arp_request(net.h2->ip());
  net.h2->send_arp_request(net.h1->ip());
  // Sustained bulk traffic across the (lossless) inter-switch link.
  for (int i = 0; i < 40; ++i) {
    net.h1->send_raw(net.h2->mac(), net.h2->ip(), "bulk", 1400);
    net.tb.run_for(250_ms);
  }
  EXPECT_FALSE(
      net.tb.controller().alerts().any(AlertType::SphinxLinkAsymmetry));
}

TEST(SphinxSymmetry, LossyLinkDetected) {
  SphinxConfig cfg;
  cfg.check_link_symmetry = true;
  SphinxNet net{cfg};
  net.tb.start(2_s);
  net.h1->send_arp_request(net.h2->ip());
  net.h2->send_arp_request(net.h1->ip());
  net.tb.run_for(500_ms);
  // Inject silent in-transit loss of bulk payloads on the inter-switch
  // wire (LLDP still passes, so the link stays "up").
  net.wire->set_drop_filter([](const net::Packet& pkt) {
    const auto* raw = pkt.raw();
    return raw != nullptr && raw->label == "bulk";
  });
  for (int i = 0; i < 40; ++i) {
    net.h1->send_raw(net.h2->mac(), net.h2->ip(), "bulk", 1400);
    net.tb.run_for(250_ms);
  }
  EXPECT_TRUE(
      net.tb.controller().alerts().any(AlertType::SphinxLinkAsymmetry));
}

TEST(SphinxSymmetry, DisabledByDefault) {
  SphinxConfig cfg;
  EXPECT_FALSE(cfg.check_link_symmetry);
}

TEST(SphinxTrust, NewLinksAreTrusted) {
  // SPHINX raises nothing for a brand-new (even fabricated) link — the
  // property the paper's Sec. V-A observes.
  SphinxNet net;
  net.tb.start(1_s);
  const auto before = net.tb.controller().alerts().count();
  net.h1->send(net::make_lldp_frame(net::MacAddress::lldp_multicast(),
                                    net::LldpPacket{0x2, 1}));
  net.tb.run_for(200_ms);
  EXPECT_TRUE(net.tb.controller().topology().has_link(
      of::Location{0x2, 1}, of::Location{0x1, 1}));
  EXPECT_EQ(net.tb.controller().alerts().count(), before);
}

}  // namespace
}  // namespace tmg::defense
