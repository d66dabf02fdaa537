// Tests for the controller core and its services (link discovery, host
// tracking, routing), run over small scenario testbeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/assert.hpp"
#include "ctrl/host_tracker.hpp"
#include "ctrl/link_discovery.hpp"
#include "ctrl/routing.hpp"
#include "scenario/testbed.hpp"
#include "host_inbox.hpp"

namespace tmg::ctrl {
namespace {

using namespace tmg::sim::literals;
using scenario::Testbed;
using scenario::TestbedOptions;
using sim::Duration;

/// Test module that records every hook invocation.
class Recorder final : public DefenseModule {
 public:
  [[nodiscard]] std::string name() const override { return "recorder"; }
  Verdict on_packet_in(const of::PacketIn& pi) override {
    packet_ins.push_back(pi);
    return Verdict::Allow;
  }
  void on_port_status(const of::PortStatus& ps) override {
    port_events.push_back(ps);
  }
  Verdict on_lldp_observation(const LldpObservation& obs) override {
    observations.push_back(obs);
    return veto_links ? Verdict::Block : Verdict::Allow;
  }
  void on_link_removed(const topo::Link& l) override {
    removed_links.push_back(l);
  }
  Verdict on_host_event(const HostEvent& ev) override {
    host_events.push_back(ev);
    return veto_hosts ? Verdict::Block : Verdict::Allow;
  }
  void on_flow_mod(of::Dpid dpid, const of::FlowMod& fm) override {
    flow_mods.emplace_back(dpid, fm);
  }

  std::vector<of::PacketIn> packet_ins;
  std::vector<of::PortStatus> port_events;
  std::vector<LldpObservation> observations;
  std::vector<topo::Link> removed_links;
  std::vector<HostEvent> host_events;
  std::vector<std::pair<of::Dpid, of::FlowMod>> flow_mods;
  bool veto_links = false;
  bool veto_hosts = false;
};

struct TwoSwitchNet {
  Testbed tb;
  attack::Host* h1;
  attack::Host* h2;
  Recorder* rec;

  explicit TwoSwitchNet(TestbedOptions opts = {}) : tb{std::move(opts)} {
    tb.add_switch(0x1);
    tb.add_switch(0x2);
    tb.connect_switches(0x1, 10, 0x2, 10);
    attack::HostConfig c1;
    c1.mac = net::MacAddress::host(1);
    c1.ip = net::Ipv4Address::host(1);
    h1 = &tb.add_host(0x1, 1, c1);
    attack::HostConfig c2;
    c2.mac = net::MacAddress::host(2);
    c2.ip = net::Ipv4Address::host(2);
    h2 = &tb.add_host(0x2, 1, c2);
    auto r = std::make_unique<Recorder>();
    rec = r.get();
    tb.controller().add_defense(std::move(r));
  }
};

// ---------------- Profiles (Table III) ----------------

TEST(Profiles, TableIIIValues) {
  EXPECT_EQ(floodlight_profile().name, "Floodlight");
  EXPECT_EQ(floodlight_profile().lldp_interval, 15_s);
  EXPECT_EQ(floodlight_profile().link_timeout, 35_s);
  EXPECT_EQ(pox_profile().lldp_interval, 5_s);
  EXPECT_EQ(pox_profile().link_timeout, 10_s);
  EXPECT_EQ(opendaylight_profile().lldp_interval, 5_s);
  EXPECT_EQ(opendaylight_profile().link_timeout, 15_s);
  EXPECT_EQ(onos_profile().lldp_interval, 3_s);
  EXPECT_EQ(onos_profile().link_timeout, 10_s);
  EXPECT_EQ(all_profiles().size(), 4u);
}

TEST(Profiles, TimeoutExceedsIntervalByFactor2To3) {
  // Paper Sec. VIII-A: the link timeout exceeds the discovery interval
  // by a factor of 2-3, tolerating isolated false removals. This holds
  // for the Table III rows; ONOS (a post-paper addition) sits just
  // above the band at 10s/3s.
  for (const auto& p :
       {floodlight_profile(), pox_profile(), opendaylight_profile()}) {
    const double ratio =
        p.link_timeout.to_seconds_f() / p.lldp_interval.to_seconds_f();
    EXPECT_GE(ratio, 2.0) << p.name;
    EXPECT_LE(ratio, 3.0) << p.name;
  }
}

// ---------------- AlertBus ----------------

TEST(AlertBus, CountsAndListeners) {
  AlertBus bus;
  int notified = 0;
  bus.subscribe([&](const Alert&) { ++notified; });
  bus.raise(Alert{sim::SimTime::zero(), "m1", AlertType::LldpFromHostPort,
                  "x", std::nullopt});
  bus.raise(Alert{sim::SimTime::zero(), "m2", AlertType::LliAbnormalLatency,
                  "y", std::nullopt});
  bus.raise(Alert{sim::SimTime::zero(), "m1", AlertType::LldpFromHostPort,
                  "z", std::nullopt});
  EXPECT_EQ(bus.count(), 3u);
  EXPECT_EQ(bus.count(AlertType::LldpFromHostPort), 2u);
  EXPECT_EQ(bus.count_from("m1"), 2u);
  EXPECT_TRUE(bus.any(AlertType::LliAbnormalLatency));
  EXPECT_FALSE(bus.any(AlertType::CmmControlMessage));
  EXPECT_EQ(notified, 3);
  bus.clear();
  EXPECT_EQ(bus.count(), 0u);
}

TEST(AlertBus, TypeNames) {
  EXPECT_STREQ(to_string(AlertType::LldpFromHostPort),
               "LLDP_FROM_HOST_PORT");
  EXPECT_STREQ(to_string(AlertType::LliAbnormalLatency),
               "LLI_ABNORMAL_LATENCY");
}

// ---------------- Link discovery ----------------

TEST(LinkDiscovery, DiscoversRealLink) {
  TwoSwitchNet net;
  net.tb.start(1_s);
  EXPECT_TRUE(net.tb.controller().topology().has_link(of::Location{0x1, 10},
                                                      of::Location{0x2, 10}));
  EXPECT_EQ(net.tb.controller().topology().link_count(), 1u);
  EXPECT_GE(net.tb.controller().link_discovery().receptions(), 2u);
}

TEST(LinkDiscovery, HostPortsProduceNoLinks) {
  TwoSwitchNet net;
  net.tb.start(1_s);
  const auto& topo = net.tb.controller().topology();
  EXPECT_FALSE(topo.is_switch_port(of::Location{0x1, 1}));
  EXPECT_FALSE(topo.is_switch_port(of::Location{0x2, 1}));
}

TEST(LinkDiscovery, EmitsPerPortPerRound) {
  TwoSwitchNet net;
  net.tb.start(1_s);
  // 4 ports total, one round at t=0.
  EXPECT_EQ(net.tb.controller().link_discovery().emissions(), 4u);
  net.tb.run_for(15_s);  // Floodlight interval
  EXPECT_EQ(net.tb.controller().link_discovery().emissions(), 8u);
}

TEST(LinkDiscovery, LinkTimesOutWithoutRefresh) {
  TestbedOptions opts;
  opts.controller.profile = pox_profile();  // 5s interval, 10s timeout
  TwoSwitchNet net{std::move(opts)};
  net.tb.start(1_s);
  ASSERT_EQ(net.tb.controller().topology().link_count(), 1u);
  // Cut the inter-switch wire: LLDP stops crossing; the link must be
  // swept out after the POX timeout.
  // Easiest cut: veto refreshes via the recorder (the link handle is
  // not exposed, so the wire itself cannot be unplugged here).
  net.rec->veto_links = true;
  net.tb.run_for(11_s);
  EXPECT_EQ(net.tb.controller().topology().link_count(), 0u);
  ASSERT_FALSE(net.rec->removed_links.empty());
}

TEST(LinkDiscovery, ObservationCarriesTimestampLatency) {
  TestbedOptions opts;
  opts.controller.lldp_timestamps = true;
  TwoSwitchNet net{std::move(opts)};
  net.tb.start(6_s);  // a couple of echo rounds for control-RTT estimates
  net.tb.run_for(16_s);  // second LLDP round with RTTs available
  bool found = false;
  for (const auto& obs : net.rec->observations) {
    if (obs.link_latency) {
      found = true;
      EXPECT_TRUE(obs.timestamp_present);
      // The wire is 5ms nominal; estimate within [2, 15] ms given
      // jitter and bootstrap conservatism.
      EXPECT_GT(obs.link_latency->to_millis_f(), 2.0);
      EXPECT_LT(obs.link_latency->to_millis_f(), 15.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(LinkDiscovery, UnsignedLldpRejectedWhenAuthRequired) {
  TestbedOptions opts;
  opts.controller.authenticate_lldp = true;
  TwoSwitchNet net{std::move(opts)};
  net.tb.start(1_s);
  // An attacker forges an (unsigned) LLDP announcing a bogus link.
  net.h1->send(net::make_lldp_frame(net::MacAddress::lldp_multicast(),
                                    net::LldpPacket{0x2, 10}));
  net.tb.run_for(100_ms);
  EXPECT_TRUE(
      net.tb.controller().alerts().any(AlertType::InvalidLldpSignature));
  // Only the genuine link exists.
  EXPECT_EQ(net.tb.controller().topology().link_count(), 1u);
}

TEST(LinkDiscovery, ForgedLldpAcceptedWithoutAuth) {
  // Without authentication the same forgery poisons the topology — the
  // baseline weakness TopoGuard's signed LLDP closes.
  TwoSwitchNet net;
  net.tb.start(1_s);
  net.h1->send(net::make_lldp_frame(net::MacAddress::lldp_multicast(),
                                    net::LldpPacket{0x2, 7}));
  net.tb.run_for(100_ms);
  EXPECT_TRUE(net.tb.controller().topology().has_link(
      of::Location{0x2, 7}, of::Location{0x1, 1}));
}

TEST(LinkDiscovery, AuthenticatorBindsChassisPortAndTtl) {
  // The controller checks a core it emitted against the tag it signed
  // that core with, and any other core with a fresh MAC. Host h1 sends
  // a genuine probe's copy (accepted), the same tag on another TTL
  // (rejected: a tag looked up by port alone would pass it), a signed
  // probe for a port never emitted (accepted, unsolicited) and the
  // genuine copy with a tampered tag (rejected).
  TestbedOptions opts;
  opts.controller.authenticate_lldp = true;
  TwoSwitchNet net{std::move(opts)};
  net.tb.start(1_s);
  Controller& ctrl = net.tb.controller();
  const auto send = [&](net::LldpPacket lldp) {
    net.h1->send(net::make_lldp_frame(net::MacAddress::lldp_multicast(),
                                      std::move(lldp)));
    net.tb.run_for(100_ms);
  };
  const auto rejected = [&] {
    return ctrl.alerts().count(AlertType::InvalidLldpSignature);
  };
  const of::Location h1_port{0x1, 1};
  const topo::Link real{of::Location{0x1, 10}, of::Location{0x2, 10}};
  const topo::Link relayed{of::Location{0x2, 10}, h1_port};
  const topo::Link forged{of::Location{0x2, 7}, h1_port};
  ASSERT_EQ(ctrl.topology().links(), std::vector<topo::Link>{real});
  const auto before = ctrl.link_discovery().lldp_accounting();
  ASSERT_EQ(before.invalid_signature, 0u);

  net::LldpPacket genuine{0x2, 10};
  genuine.sign(ctrl.lldp_key());
  send(genuine);
  std::vector<topo::Link> expect{real, relayed};
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(ctrl.topology().links(), expect);
  EXPECT_EQ(rejected(), 0u);
  auto acc = ctrl.link_discovery().lldp_accounting();
  EXPECT_EQ(acc.invalid_signature, 0u);
  EXPECT_EQ(acc.duplicate, before.duplicate + 1);  // 0x2:10 was answered

  // Bytes 16-17 are the TTL TLV's value (chassis 2+8, port 2+2, TTL 2+2).
  std::vector<std::uint8_t> bytes = genuine.serialize();
  bytes[16] = 0;
  bytes[17] = 60;
  const auto retimed = net::LldpPacket::parse(bytes);
  ASSERT_TRUE(retimed.has_value());
  ASSERT_EQ(retimed->ttl(), 60);
  send(*retimed);
  EXPECT_EQ(ctrl.topology().links(), expect);
  EXPECT_EQ(rejected(), 1u);
  acc = ctrl.link_discovery().lldp_accounting();
  EXPECT_EQ(acc.invalid_signature, 1u);
  EXPECT_EQ(acc.duplicate, before.duplicate + 1);

  net::LldpPacket unsolicited{0x2, 7};
  unsolicited.sign(ctrl.lldp_key());
  send(unsolicited);
  expect.push_back(forged);
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(ctrl.topology().links(), expect);
  EXPECT_EQ(rejected(), 1u);
  acc = ctrl.link_discovery().lldp_accounting();
  EXPECT_EQ(acc.invalid_signature, 1u);
  EXPECT_EQ(acc.unsolicited, before.unsolicited + 1);

  net::LldpPacket tampered = genuine;
  tampered.tamper_authenticator();
  send(tampered);
  EXPECT_EQ(ctrl.topology().links(), expect);
  EXPECT_EQ(rejected(), 2u);
  acc = ctrl.link_discovery().lldp_accounting();
  EXPECT_EQ(acc.invalid_signature, 2u);
  EXPECT_EQ(acc.duplicate, before.duplicate + 1);
  EXPECT_EQ(acc.unsolicited, before.unsolicited + 1);
}

TEST(LinkDiscovery, VetoBlocksNewLink) {
  TwoSwitchNet net;
  net.rec->veto_links = true;
  net.tb.start(1_s);
  EXPECT_EQ(net.tb.controller().topology().link_count(), 0u);
  EXPECT_FALSE(net.rec->observations.empty());
}

TEST(LinkDiscovery, SingleLostRoundDoesNotRemoveLink) {
  // Sec. VIII-A: the link timeout exceeds the discovery interval 2-3x,
  // so one lost LLDP round (e.g. an LLI false positive blocking a
  // refresh, or transient loss) never drops a benign link.
  TwoSwitchNet net;
  net.tb.start(1_s);
  ASSERT_EQ(net.tb.controller().topology().link_count(), 1u);
  // Suppress exactly one refresh round via module veto.
  net.rec->veto_links = true;
  net.tb.run_for(16_s);  // covers one 15 s Floodlight round
  net.rec->veto_links = false;
  bool always_present = true;
  for (int i = 0; i < 40; ++i) {
    net.tb.run_for(1_s);
    always_present &= net.tb.controller().topology().link_count() == 1;
  }
  EXPECT_TRUE(always_present);
}

TEST(LinkDiscovery, TwoLostRoundsRemoveLink) {
  // The flip side: missing two consecutive rounds exceeds the 35 s
  // Floodlight timeout and the link ages out.
  TwoSwitchNet net;
  net.tb.start(1_s);
  net.rec->veto_links = true;
  net.tb.run_for(36_s);  // two rounds suppressed
  EXPECT_EQ(net.tb.controller().topology().link_count(), 0u);
}

// ---------------- Control RTT ----------------

TEST(Controller, ControlRttTracksChannel) {
  TwoSwitchNet net;
  net.tb.start(5_s);  // a few echo rounds (every 2s)
  const auto rtt = net.tb.controller().control_rtt(0x1);
  ASSERT_TRUE(rtt.has_value());
  // Channel one-way is ~1 ms, so RTT ~2 ms.
  EXPECT_NEAR(rtt->to_millis_f(), 2.0, 0.5);
}

TEST(Controller, ControlRttUnknownSwitch) {
  TwoSwitchNet net;
  net.tb.start(1_s);
  EXPECT_FALSE(net.tb.controller().control_rtt(0x99).has_value());
}

// ---------------- Host tracking ----------------

TEST(HostTracker, LearnsFromFirstPacket) {
  TwoSwitchNet net;
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(100_ms);
  const auto rec = net.tb.controller().host_tracker().find(net.h1->mac());
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->loc, (of::Location{0x1, 1}));
  EXPECT_EQ(rec->ip, net.h1->ip());
}

TEST(HostTracker, FindByIp) {
  TwoSwitchNet net;
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(100_ms);
  const auto rec =
      net.tb.controller().host_tracker().find_by_ip(net.h1->ip());
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->mac, net.h1->mac());
  EXPECT_FALSE(net.tb.controller()
                   .host_tracker()
                   .find_by_ip(net::Ipv4Address::host(99))
                   .has_value());
}

TEST(HostTracker, IgnoresSwitchInternalPorts) {
  TwoSwitchNet net;
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.h2->send_arp_request(net.h1->ip());
  net.tb.run_for(500_ms);
  // No host may ever be bound to the inter-switch ports.
  for (const auto& rec :
       net.tb.controller().host_tracker().hosts_sorted()) {
    EXPECT_NE(rec.loc, (of::Location{0x1, 10})) << rec.mac.to_string();
    EXPECT_NE(rec.loc, (of::Location{0x2, 10})) << rec.mac.to_string();
  }
}

TEST(HostTracker, MoveEmitsEventAndRebinds) {
  TwoSwitchNet net;
  of::DataLink& target = net.tb.add_access_link(0x2, 4);
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(200_ms);
  scenario::migrate_host(net.tb, *net.h1, target, 500_ms);
  net.tb.run_for(600_ms);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(200_ms);
  const auto rec = net.tb.controller().host_tracker().find(net.h1->mac());
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->loc, (of::Location{0x2, 4}));
  EXPECT_EQ(net.tb.controller().host_tracker().migrations(), 1u);
  bool saw_move = false;
  for (const auto& ev : net.rec->host_events) {
    if (ev.kind == HostEvent::Kind::Moved && ev.mac == net.h1->mac()) {
      saw_move = true;
      ASSERT_TRUE(ev.old_loc.has_value());
      EXPECT_EQ(*ev.old_loc, (of::Location{0x1, 1}));
    }
  }
  EXPECT_TRUE(saw_move);
}

TEST(HostTracker, VetoBlocksRebinding) {
  TwoSwitchNet net;
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(200_ms);
  net.rec->veto_hosts = true;
  // A spoofer claims h1's identity from h2's port.
  net.h2->send(net::make_raw(net.h1->mac(), net.h1->ip(), net.h2->mac(),
                             net.h2->ip(), "spoof", 64));
  net.tb.run_for(200_ms);
  const auto rec = net.tb.controller().host_tracker().find(net.h1->mac());
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->loc, (of::Location{0x1, 1}));  // unchanged
  EXPECT_GE(net.tb.controller().host_tracker().blocked_events(), 1u);
}

// ---------------- Routing ----------------

TEST(Routing, EndToEndPingAcrossSwitches) {
  TwoSwitchNet net;
  const testutil::Inbox h1_rx{*net.h1};
  const testutil::Inbox h2_rx{*net.h2};
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.h2->send_arp_request(net.h1->ip());
  net.tb.run_for(300_ms);
  net.h1->send_ping(net.h2->mac(), net.h2->ip(), 1, 1);
  net.tb.run_for(300_ms);
  // h2 got the echo request and h1 got the reply.
  bool h2_got_req = false, h1_got_rep = false;
  for (const auto& p : h2_rx.packets()) {
    if (p.icmp() && p.icmp()->type == net::IcmpPayload::Type::EchoRequest) {
      h2_got_req = true;
    }
  }
  for (const auto& p : h1_rx.packets()) {
    if (p.icmp() && p.icmp()->type == net::IcmpPayload::Type::EchoReply) {
      h1_got_rep = true;
    }
  }
  EXPECT_TRUE(h2_got_req);
  EXPECT_TRUE(h1_got_rep);
  EXPECT_GE(net.tb.controller().routing().paths_installed(), 1u);
}

TEST(Routing, InstallsFlowRules) {
  TwoSwitchNet net;
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.h2->send_arp_request(net.h1->ip());
  net.tb.run_for(200_ms);
  net.h1->send_ping(net.h2->mac(), net.h2->ip(), 1, 1);
  net.tb.run_for(200_ms);
  EXPECT_GT(net.tb.get_switch(0x1).flow_table().size(), 0u);
  EXPECT_GT(net.tb.get_switch(0x2).flow_table().size(), 0u);
  EXPECT_FALSE(net.rec->flow_mods.empty());
}

TEST(Routing, BroadcastDeliveredOncePerHost) {
  TwoSwitchNet net;
  net.tb.start(1_s);
  const testutil::Inbox h2_rx{*net.h2};
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(300_ms);
  int arp_reqs = 0;
  for (const auto& p : h2_rx.packets()) {
    if (p.arp() && p.arp()->op == net::ArpPayload::Op::Request) ++arp_reqs;
  }
  EXPECT_EQ(arp_reqs, 1);  // duplicate-suppressed flood
}

TEST(Routing, UnknownUnicastFloods) {
  TwoSwitchNet net;
  net.tb.start(1_s);
  const auto before = net.tb.controller().routing().floods();
  net.h1->send_raw(net::MacAddress::host(77), net::Ipv4Address::host(77),
                   "mystery");
  net.tb.run_for(200_ms);
  EXPECT_GT(net.tb.controller().routing().floods(), before);
}

TEST(Routing, HostMovePurgesStaleRules) {
  TwoSwitchNet net;
  of::DataLink& target = net.tb.add_access_link(0x2, 4);
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.h2->send_arp_request(net.h1->ip());
  net.tb.run_for(200_ms);
  net.h2->send_ping(net.h1->mac(), net.h1->ip(), 3, 1);
  net.tb.run_for(200_ms);
  // Rules toward h1 exist; move h1 and verify fresh traffic reaches the
  // new location.
  scenario::migrate_host(net.tb, *net.h1, target, 200_ms);
  net.tb.run_for(300_ms);
  net.h1->send_arp_request(net.h2->ip());  // re-register at new port
  net.tb.run_for(200_ms);
  const testutil::Inbox h1_rx{*net.h1};
  net.h2->send_ping(net.h1->mac(), net.h1->ip(), 3, 2);
  net.tb.run_for(300_ms);
  bool got_ping = false;
  for (const auto& p : h1_rx.packets()) {
    if (p.icmp() && p.icmp()->type == net::IcmpPayload::Type::EchoRequest) {
      got_ping = true;
    }
  }
  EXPECT_TRUE(got_ping);
}

// ---------------- Reachability probes ----------------

TEST(Controller, ProbeReachabilityTrueForLiveHost) {
  TwoSwitchNet net;
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(100_ms);
  bool result = false, done = false;
  net.tb.controller().probe_reachability(
      of::Location{0x1, 1}, net.h1->mac(), net.h1->ip(), 200_ms, [&](bool r) {
        result = r;
        done = true;
      });
  net.tb.run_for(300_ms);
  EXPECT_TRUE(done);
  EXPECT_TRUE(result);
}

TEST(Controller, ProbeReachabilityFalseForDownHost) {
  TwoSwitchNet net;
  net.tb.start(1_s);
  net.h1->set_interface(false);
  net.tb.run_for(50_ms);
  bool result = true, done = false;
  net.tb.controller().probe_reachability(
      of::Location{0x1, 1}, net.h1->mac(), net.h1->ip(), 200_ms, [&](bool r) {
        result = r;
        done = true;
      });
  net.tb.run_for(500_ms);
  EXPECT_TRUE(done);
  EXPECT_FALSE(result);
}

TEST(Controller, ProbeRepliesInvisibleToModules) {
  TwoSwitchNet net;
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(100_ms);
  const auto before = net.rec->packet_ins.size();
  ASSERT_FALSE(net.h1->arp_lookup(net.tb.controller().ip()).has_value());
  bool done = false;
  net.tb.controller().probe_reachability(of::Location{0x1, 1}, net.h1->mac(),
                                         net.h1->ip(), 200_ms,
                                         [&](bool) { done = true; });
  net.tb.run_for(300_ms);
  ASSERT_TRUE(done);
  // To reply, h1 resolved the controller's identity IP during the
  // probe; the core answered that ARP itself.
  EXPECT_EQ(net.h1->arp_lookup(net.tb.controller().ip()),
            net.tb.controller().mac());
  // The probe's echo reply and h1's ARP request for the controller
  // were both consumed before the defense pipeline.
  for (std::size_t i = before; i < net.rec->packet_ins.size(); ++i) {
    const net::Packet& pkt = *net.rec->packet_ins[i].packet;
    const auto* icmp = pkt.icmp();
    EXPECT_FALSE(icmp &&
                 icmp->type == net::IcmpPayload::Type::EchoReply &&
                 pkt.dst_mac == net.tb.controller().mac());
    const auto* arp = pkt.arp();
    EXPECT_FALSE(arp && arp->op == net::ArpPayload::Op::Request &&
                 arp->target_ip == net.tb.controller().ip());
  }
}

// ---------------------------------------------------------------------
// ControllerConfig validation (the constructor rejects a non-positive
// Table III timer through TMG_ASSERT; one test per timer).
// ---------------------------------------------------------------------

/// Construct a Controller with `mutate` applied to a default config and
/// return the assertion messages that fired.
std::vector<std::string> config_violations(
    const std::function<void(ControllerConfig&)>& mutate) {
  ControllerConfig cfg;
  mutate(cfg);
  std::vector<std::string> messages;
  check::FailureHandler previous = check::set_failure_handler(
      [&](const char*, int, const char*, const std::string& msg) {
        messages.push_back(msg);
      });
  {
    sim::EventLoop loop;
    Controller ctrl{loop, sim::Rng{1}, cfg};
  }
  check::set_failure_handler(std::move(previous));
  return messages;
}

bool any_mentions(const std::vector<std::string>& messages,
                  const std::string& knob) {
  return std::any_of(messages.begin(), messages.end(),
                     [&](const std::string& m) {
                       return m.find(knob) != std::string::npos;
                     });
}

TEST(ControllerConfig, DefaultConfigIsValid) {
  EXPECT_TRUE(config_violations([](ControllerConfig&) {}).empty());
}

TEST(ControllerConfig, RejectsNonPositiveLldpInterval) {
  const auto msgs = config_violations([](ControllerConfig& c) {
    c.profile.lldp_interval = sim::Duration::zero();
  });
  EXPECT_TRUE(any_mentions(msgs, "lldp_interval"));
}

TEST(ControllerConfig, RejectsNonPositiveLinkTimeout) {
  const auto msgs = config_violations([](ControllerConfig& c) {
    c.profile.link_timeout = sim::Duration::zero();
  });
  EXPECT_TRUE(any_mentions(msgs, "link_timeout"));
}

// --- Open-addressed host table (host_table.hpp) ---

HostRecord make_rec(std::uint32_t i) {
  HostRecord rec;
  rec.mac = net::MacAddress::host(i);
  rec.ip = net::Ipv4Address::host(i);
  rec.loc = of::Location{1 + (i % 7), static_cast<of::PortNo>(1 + i % 40)};
  rec.first_seen = sim::SimTime{};
  return rec;
}

TEST(HostTable, InsertFindGrowAcrossShardDoublings) {
  HostTable table;
  // Well past the initial 64 slots, so the table doubles nine times.
  constexpr std::uint32_t kHosts = 20'000;
  for (std::uint32_t i = 0; i < kHosts; ++i) table.insert(make_rec(i));
  EXPECT_EQ(table.size(), kHosts);
  EXPECT_TRUE(table.audit().empty());
  for (std::uint32_t i = 0; i < kHosts; ++i) {
    const HostRecord* rec = table.find(net::MacAddress::host(i));
    ASSERT_NE(rec, nullptr) << "host " << i << " lost";
    EXPECT_EQ(rec->ip, net::Ipv4Address::host(i));
  }
  EXPECT_EQ(table.find(net::MacAddress::host(kHosts + 1)), nullptr);
}

TEST(HostTable, InsertRewritesExistingKey) {
  HostTable table;
  table.insert(make_rec(1));
  HostRecord updated = make_rec(1);
  updated.loc = of::Location{0x42, 9};
  table.insert(updated);
  EXPECT_EQ(table.size(), 1u);
  const HostRecord* rec = table.find(net::MacAddress::host(1));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->loc, (of::Location{0x42, 9}));
  EXPECT_TRUE(table.audit().empty());
}

TEST(HostTable, SortedSnapshotIsMacOrdered) {
  HostTable table;
  // Insert in descending order; snapshot must come back ascending.
  for (std::uint32_t i = 500; i > 0; --i) table.insert(make_rec(i));
  const std::vector<HostRecord> snap = table.sorted();
  ASSERT_EQ(snap.size(), 500u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].mac, snap[i].mac);
  }
}

TEST(HostTable, SortedSnapshotIsHistoryIndependent) {
  // Same record set inserted in two different orders must export the
  // same snapshot, regardless of the physical probe layout each
  // history produced.
  HostTable a;
  HostTable b;
  for (std::uint32_t i = 0; i < 1'000; ++i) a.insert(make_rec(i));
  for (std::uint32_t i = 1'000; i > 0; --i) b.insert(make_rec(i - 1));
  const auto sa = a.sorted();
  const auto sb = b.sorted();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].mac, sb[i].mac);
    EXPECT_EQ(sa[i].loc, sb[i].loc);
  }
}

}  // namespace
}  // namespace tmg::ctrl
