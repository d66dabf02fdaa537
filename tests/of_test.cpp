// Unit tests for the OpenFlow substrate: matches, flow table, data link,
// control channel, switch behavior (including link-integrity-pulse
// Port-Down semantics, which Port Amnesia depends on).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "of/control_channel.hpp"
#include "of/data_link.hpp"
#include "of/flow_table.hpp"
#include "of/messages.hpp"
#include "of/switch.hpp"

namespace tmg::of {
namespace {

using namespace tmg::sim::literals;
using sim::Duration;
using sim::EventLoop;
using sim::Rng;
using sim::SimTime;

net::Packet ping(std::uint32_t src, std::uint32_t dst) {
  return net::make_icmp_echo(net::MacAddress::host(src),
                             net::Ipv4Address::host(src),
                             net::MacAddress::host(dst),
                             net::Ipv4Address::host(dst), 1, 1);
}

net::PacketPtr shared(net::Packet pkt) {
  return std::make_shared<const net::Packet>(std::move(pkt));
}

// ---------------- FlowMatch ----------------

TEST(FlowMatch, EmptyMatchesEverything) {
  const FlowMatch m;
  EXPECT_TRUE(m.matches(ping(1, 2), 1));
  EXPECT_TRUE(m.matches(ping(3, 4), 99));
}

TEST(FlowMatch, InPort) {
  FlowMatch m;
  m.in_port = 3;
  EXPECT_TRUE(m.matches(ping(1, 2), 3));
  EXPECT_FALSE(m.matches(ping(1, 2), 4));
}

TEST(FlowMatch, MacFields) {
  FlowMatch m;
  m.src_mac = net::MacAddress::host(1);
  m.dst_mac = net::MacAddress::host(2);
  EXPECT_TRUE(m.matches(ping(1, 2), 1));
  EXPECT_FALSE(m.matches(ping(2, 1), 1));
}

TEST(FlowMatch, EtherType) {
  FlowMatch m;
  m.ethertype = net::EtherType::Arp;
  EXPECT_FALSE(m.matches(ping(1, 2), 1));
  EXPECT_TRUE(m.matches(net::make_arp_request(net::MacAddress::host(1),
                                              net::Ipv4Address::host(1),
                                              net::Ipv4Address::host(2)),
                        1));
}

TEST(FlowMatch, IpFieldsRequireIpHeader) {
  FlowMatch m;
  m.src_ip = net::Ipv4Address::host(1);
  EXPECT_TRUE(m.matches(ping(1, 2), 1));
  EXPECT_FALSE(m.matches(ping(3, 2), 1));
  // ARP has no IPv4 header: an ip match can never hit it.
  EXPECT_FALSE(m.matches(net::make_arp_request(net::MacAddress::host(1),
                                               net::Ipv4Address::host(1),
                                               net::Ipv4Address::host(2)),
                         1));
}

TEST(FlowMatch, ToStringListsSetFields) {
  FlowMatch m;
  m.in_port = 2;
  m.dst_mac = net::MacAddress::host(9);
  const std::string s = m.to_string();
  EXPECT_NE(s.find("in=2"), std::string::npos);
  EXPECT_NE(s.find("dmac="), std::string::npos);
}

// ---------------- FlowTable ----------------

TEST(FlowTable, LookupHonorsPriority) {
  FlowTable t;
  FlowEntry low;
  low.match.dst_mac = net::MacAddress::host(2);
  low.priority = 10;
  low.action = FlowAction::drop();
  FlowEntry high = low;
  high.priority = 200;
  high.action = FlowAction::output(7);
  t.add(low, SimTime::zero());
  t.add(high, SimTime::zero());
  FlowEntry* hit = t.lookup(ping(1, 2), 1, SimTime::zero());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action, FlowAction::output(7));
}

TEST(FlowTable, EqualPriorityFirstInstalledWins) {
  FlowTable t;
  FlowEntry a;
  a.priority = 100;
  a.action = FlowAction::output(1);
  FlowEntry b;
  b.priority = 100;
  b.match.in_port = 1;  // different match, same priority
  b.action = FlowAction::output(2);
  t.add(a, SimTime::zero());
  t.add(b, SimTime::zero());
  FlowEntry* hit = t.lookup(ping(1, 2), 1, SimTime::zero());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action, FlowAction::output(1));
}

TEST(FlowTable, AddReplacesIdenticalMatchAndPriority) {
  FlowTable t;
  FlowEntry e;
  e.match.dst_mac = net::MacAddress::host(2);
  e.priority = 100;
  e.action = FlowAction::output(1);
  t.add(e, SimTime::zero());
  e.action = FlowAction::output(9);
  t.add(e, SimTime::zero());
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.entries()[0].action, FlowAction::output(9));
}

TEST(FlowTable, LookupUpdatesCounters) {
  FlowTable t;
  FlowEntry e;
  e.action = FlowAction::output(1);
  t.add(e, SimTime::zero());
  const net::Packet p = ping(1, 2);
  t.lookup(p, 1, SimTime::zero() + 1_ms);
  t.lookup(p, 1, SimTime::zero() + 2_ms);
  EXPECT_EQ(t.entries()[0].packet_count, 2u);
  EXPECT_EQ(t.entries()[0].byte_count, 2 * p.wire_size());
  EXPECT_EQ(t.entries()[0].last_matched_at, SimTime::zero() + 2_ms);
}

TEST(FlowTable, MissReturnsNull) {
  FlowTable t;
  FlowEntry e;
  e.match.dst_mac = net::MacAddress::host(9);
  e.action = FlowAction::output(1);
  t.add(e, SimTime::zero());
  EXPECT_EQ(t.lookup(ping(1, 2), 1, SimTime::zero()), nullptr);
}

TEST(FlowTable, RemoveMatching) {
  FlowTable t;
  FlowEntry e;
  e.match.dst_mac = net::MacAddress::host(2);
  e.action = FlowAction::output(1);
  t.add(e, SimTime::zero());
  FlowMatch other;
  other.dst_mac = net::MacAddress::host(3);
  EXPECT_TRUE(t.remove_matching(other).empty());
  const auto removed = t.remove_matching(e.match);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(FlowTable, IdleTimeoutExpiry) {
  FlowTable t;
  FlowEntry e;
  e.action = FlowAction::output(1);
  e.idle_timeout = 5_s;
  t.add(e, SimTime::zero());
  EXPECT_TRUE(t.expire(SimTime::zero() + 4_s).empty());
  const auto expired = t.expire(SimTime::zero() + 5_s);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].reason, FlowRemoved::Reason::IdleTimeout);
}

TEST(FlowTable, IdleTimeoutRefreshedByTraffic) {
  FlowTable t;
  FlowEntry e;
  e.action = FlowAction::output(1);
  e.idle_timeout = 5_s;
  t.add(e, SimTime::zero());
  t.lookup(ping(1, 2), 1, SimTime::zero() + 4_s);
  EXPECT_TRUE(t.expire(SimTime::zero() + 8_s).empty());
  EXPECT_EQ(t.expire(SimTime::zero() + 9_s).size(), 1u);
}

TEST(FlowTable, HardTimeoutIgnoresTraffic) {
  FlowTable t;
  FlowEntry e;
  e.action = FlowAction::output(1);
  e.hard_timeout = 10_s;
  t.add(e, SimTime::zero());
  t.lookup(ping(1, 2), 1, SimTime::zero() + 9_s);
  const auto expired = t.expire(SimTime::zero() + 10_s);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].reason, FlowRemoved::Reason::HardTimeout);
}

TEST(FlowTable, ZeroTimeoutsNeverExpire) {
  FlowTable t;
  FlowEntry e;
  e.action = FlowAction::output(1);
  t.add(e, SimTime::zero());
  EXPECT_TRUE(t.expire(SimTime::zero() + Duration::seconds(100000)).empty());
}

// ---------------- DataLink ----------------

struct LinkFixture {
  EventLoop loop;
  Rng rng{1};
  DataLink link{loop, Rng{2}, sim::make_fixed(Duration::millis(5))};
  std::vector<net::PacketPtr> at_a;
  std::vector<net::PacketPtr> at_b;

  LinkFixture() {
    link.attach(Side::A,
                {[this](const net::PacketPtr& p) { at_a.push_back(p); },
                 [](bool) {}});
    link.attach(Side::B,
                {[this](const net::PacketPtr& p) { at_b.push_back(p); },
                 [](bool) {}});
  }
};

TEST(DataLink, DeliversAfterLatency) {
  LinkFixture f;
  f.link.send(Side::A, ping(1, 2));
  f.loop.run_until(SimTime::zero() + Duration::from_millis_f(4.9));
  EXPECT_TRUE(f.at_b.empty());
  f.loop.run_until(SimTime::zero() + Duration::from_millis_f(5.1));
  ASSERT_EQ(f.at_b.size(), 1u);
  EXPECT_TRUE(f.at_a.empty());
  EXPECT_EQ(f.link.delivered(Side::B), 1u);
}

TEST(DataLink, CarrierDownDropsPackets) {
  LinkFixture f;
  f.link.set_carrier(Side::B, false);
  f.link.send(Side::A, ping(1, 2));
  f.loop.run();
  EXPECT_TRUE(f.at_b.empty());
  f.link.set_carrier(Side::B, true);
  f.link.send(Side::A, ping(1, 2));
  f.loop.run();
  EXPECT_EQ(f.at_b.size(), 1u);
}

TEST(DataLink, CarrierChangeNotifiesPeer) {
  EventLoop loop;
  DataLink link{loop, Rng{3}, sim::make_fixed(1_ms)};
  std::vector<bool> seen_at_a;
  link.attach(Side::A, {[](const net::PacketPtr&) {},
                        [&](bool up) { seen_at_a.push_back(up); }});
  link.attach(Side::B, {{}, {}});
  link.set_carrier(Side::B, false);
  link.set_carrier(Side::B, false);  // duplicate: no second notification
  link.set_carrier(Side::B, true);
  EXPECT_EQ(seen_at_a, (std::vector<bool>{false, true}));
}

TEST(DataLink, JitterDoesNotReorder) {
  EventLoop loop;
  // Huge jitter relative to mean would reorder without the FIFO clamp.
  DataLink link{loop, Rng{4},
                std::make_unique<sim::NormalLatency>(5_ms, 3_ms)};
  std::vector<std::uint64_t> order;
  link.attach(Side::A, {{}, {}});
  link.attach(Side::B, {[&](const net::PacketPtr& p) {
                          order.push_back(p->trace_id);
                        },
                        {}});
  std::vector<std::uint64_t> sent;
  for (int i = 0; i < 50; ++i) {
    net::Packet p = ping(1, 2);
    sent.push_back(p.trace_id);
    link.send(Side::A, p);
  }
  loop.run();
  EXPECT_EQ(order, sent);
}

TEST(DataLink, DropFilterInjectsLoss) {
  LinkFixture f;
  f.link.set_drop_filter(
      [](const net::Packet& p) { return p.is_lldp(); });
  f.link.send(Side::A, ping(1, 2));
  f.link.send(Side::A, net::make_lldp_frame(net::MacAddress::lldp_multicast(),
                                            net::LldpPacket{0x1, 1}));
  f.loop.run();
  ASSERT_EQ(f.at_b.size(), 1u);  // only the ping survived
  EXPECT_FALSE(f.at_b[0]->is_lldp());
}

TEST(DataLink, TapSeesDeliveredPackets) {
  LinkFixture f;
  int tapped = 0;
  f.link.set_tap([&](const net::Packet&, Side to) {
    EXPECT_EQ(to, Side::B);
    ++tapped;
  });
  f.link.send(Side::A, ping(1, 2));
  f.loop.run();
  EXPECT_EQ(tapped, 1);
}

// ---------------- ControlChannel ----------------

TEST(ControlChannel, RoundTripDelivery) {
  EventLoop loop;
  ControlChannel ch{loop, Rng{5}, sim::make_fixed(1_ms)};
  std::vector<CtrlToSwitch> to_sw;
  std::vector<SwitchToCtrl> to_ctrl;
  ch.attach_switch([&](const CtrlToSwitch& m) { to_sw.push_back(m); });
  ch.attach_controller([&](const SwitchToCtrl& m) { to_ctrl.push_back(m); });
  ch.to_switch(EchoRequest{7});
  ch.to_controller(EchoReply{0x1, 7});
  loop.run();
  ASSERT_EQ(to_sw.size(), 1u);
  ASSERT_EQ(to_ctrl.size(), 1u);
  EXPECT_EQ(std::get<EchoRequest>(to_sw[0]).token, 7u);
  EXPECT_EQ(std::get<EchoReply>(to_ctrl[0]).token, 7u);
  EXPECT_EQ(ch.messages_to_switch(), 1u);
  EXPECT_EQ(ch.messages_to_controller(), 1u);
}

TEST(ControlChannel, PerTypeCountersPartitionTheTotals) {
  EventLoop loop;
  ControlChannel ch{loop, Rng{5}, sim::make_fixed(1_ms)};
  ch.attach_switch([](const CtrlToSwitch&) {});
  ch.attach_controller([](const SwitchToCtrl&) {});
  ch.to_switch(EchoRequest{1});
  ch.to_switch(EchoRequest{2});
  ch.to_switch(PacketOut{});
  ch.to_controller(EchoReply{0x1, 1});
  ch.to_controller(PacketIn{});
  ch.to_controller(PacketIn{});
  ch.to_controller(PortStatus{});
  loop.run();

  const auto& down = ch.to_switch_counts();
  const auto& up = ch.to_controller_counts();
  EXPECT_EQ(down[CtrlToSwitch{PacketOut{}}.index()], 1u);
  EXPECT_EQ(down[CtrlToSwitch{EchoRequest{}}.index()], 2u);
  EXPECT_EQ(up[SwitchToCtrl{PacketIn{}}.index()], 2u);
  EXPECT_EQ(up[SwitchToCtrl{PortStatus{}}.index()], 1u);
  EXPECT_EQ(up[SwitchToCtrl{EchoReply{}}.index()], 1u);

  std::uint64_t down_sum = 0;
  for (std::uint64_t c : down) down_sum += c;
  std::uint64_t up_sum = 0;
  for (std::uint64_t c : up) up_sum += c;
  EXPECT_EQ(down_sum, ch.messages_to_switch());
  EXPECT_EQ(up_sum, ch.messages_to_controller());
}

TEST(ControlChannel, FifoUnderJitter) {
  EventLoop loop;
  ControlChannel ch{loop, Rng{6},
                    std::make_unique<sim::NormalLatency>(2_ms, 1500_us)};
  std::vector<std::uint64_t> seen;
  ch.attach_switch([&](const CtrlToSwitch& m) {
    seen.push_back(std::get<EchoRequest>(m).token);
  });
  for (std::uint64_t i = 0; i < 50; ++i) ch.to_switch(EchoRequest{i});
  loop.run();
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

// ---------------- Switch ----------------

struct SwitchFixture {
  EventLoop loop;
  ControlChannel channel{loop, Rng{7}, sim::make_fixed(1_ms)};
  Switch sw{loop, Rng{11}, 0xA, channel};
  DataLink l1{loop, Rng{8}, sim::make_fixed(100_us)};
  DataLink l2{loop, Rng{9}, sim::make_fixed(100_us)};
  DataLink l3{loop, Rng{10}, sim::make_fixed(100_us)};
  std::vector<SwitchToCtrl> ctrl_inbox;
  std::vector<net::PacketPtr> host1, host2, host3;

  SwitchFixture() {
    channel.attach_controller(
        [this](const SwitchToCtrl& m) { ctrl_inbox.push_back(m); });
    sw.attach_link(1, l1, Side::A);
    sw.attach_link(2, l2, Side::A);
    sw.attach_link(3, l3, Side::A);
    l1.attach(Side::B,
              {[this](const net::PacketPtr& p) { host1.push_back(p); },
               [](bool) {}});
    l2.attach(Side::B,
              {[this](const net::PacketPtr& p) { host2.push_back(p); },
               [](bool) {}});
    l3.attach(Side::B,
              {[this](const net::PacketPtr& p) { host3.push_back(p); },
               [](bool) {}});
  }

  void run(Duration d = Duration::millis(100)) {
    loop.run_until(loop.now() + d);
  }

  template <typename T>
  std::vector<T> collect() const {
    std::vector<T> out;
    for (const auto& m : ctrl_inbox) {
      if (const T* v = std::get_if<T>(&m)) out.push_back(*v);
    }
    return out;
  }
};

TEST(Switch, TableMissGoesToController) {
  SwitchFixture f;
  f.l1.send(Side::B, ping(1, 2));
  f.run();
  const auto pis = f.collect<PacketIn>();
  ASSERT_EQ(pis.size(), 1u);
  EXPECT_EQ(pis[0].dpid, 0xAu);
  EXPECT_EQ(pis[0].in_port, 1);
  EXPECT_EQ(pis[0].reason, PacketIn::Reason::TableMiss);
}

TEST(Switch, FlowRuleForwards) {
  SwitchFixture f;
  FlowMod fm;
  fm.match.dst_mac = net::MacAddress::host(2);
  fm.action = FlowAction::output(2);
  f.channel.to_switch(fm);
  f.run();
  f.l1.send(Side::B, ping(1, 2));
  f.run();
  EXPECT_EQ(f.host2.size(), 1u);
  EXPECT_TRUE(f.collect<PacketIn>().empty());
  EXPECT_EQ(f.sw.port_stats(2).tx_packets, 1u);
  EXPECT_EQ(f.sw.port_stats(1).rx_packets, 1u);
}

TEST(Switch, FloodExcludesIngress) {
  SwitchFixture f;
  FlowMod fm;
  fm.action = FlowAction::flood();
  f.channel.to_switch(fm);
  f.run();
  f.l1.send(Side::B, ping(1, 2));
  f.run();
  EXPECT_TRUE(f.host1.empty());
  EXPECT_EQ(f.host2.size(), 1u);
  EXPECT_EQ(f.host3.size(), 1u);
}

TEST(Switch, DropActionDrops) {
  SwitchFixture f;
  FlowMod fm;
  fm.action = FlowAction::drop();
  f.channel.to_switch(fm);
  f.run();
  f.l1.send(Side::B, ping(1, 2));
  f.run();
  EXPECT_TRUE(f.host2.empty());
  EXPECT_TRUE(f.collect<PacketIn>().empty());
}

TEST(Switch, LldpAlwaysPuntsToController) {
  SwitchFixture f;
  // Even a catch-all forwarding rule must not swallow LLDP.
  FlowMod fm;
  fm.action = FlowAction::output(2);
  f.channel.to_switch(fm);
  f.run();
  f.l1.send(Side::B, net::make_lldp_frame(net::MacAddress::lldp_multicast(),
                                          net::LldpPacket{0x1, 1}));
  f.run();
  const auto pis = f.collect<PacketIn>();
  ASSERT_EQ(pis.size(), 1u);
  EXPECT_TRUE(pis[0].packet->is_lldp());
  EXPECT_TRUE(f.host2.empty());
}

TEST(Switch, PacketOutToPort) {
  SwitchFixture f;
  f.channel.to_switch(PacketOut{2, kPortNone, shared(ping(9, 2))});
  f.run();
  EXPECT_EQ(f.host2.size(), 1u);
}

TEST(Switch, PacketOutFloodReachesAllPorts) {
  SwitchFixture f;
  f.channel.to_switch(PacketOut{kPortFlood, kPortNone, shared(ping(9, 2))});
  f.run();
  EXPECT_EQ(f.host1.size(), 1u);
  EXPECT_EQ(f.host2.size(), 1u);
  EXPECT_EQ(f.host3.size(), 1u);
}

TEST(Switch, PacketOutToControllerBouncesBack) {
  SwitchFixture f;
  f.channel.to_switch(
      PacketOut{kPortController, kPortNone, shared(ping(9, 2))});
  f.run();
  const auto pis = f.collect<PacketIn>();
  ASSERT_EQ(pis.size(), 1u);
  EXPECT_EQ(pis[0].in_port, kPortController);
}

// A packet in flight is one shared object: a Packet-Out hands every
// egress port the pointer the controller sent, not a copy.
TEST(Switch, PacketOutForwardsThePacketItCarries) {
  SwitchFixture f;
  const net::PacketPtr p = shared(ping(9, 2));
  f.channel.to_switch(PacketOut{2, kPortNone, p});
  f.run();
  ASSERT_EQ(f.host2.size(), 1u);
  EXPECT_EQ(f.host2[0].get(), p.get());

  f.channel.to_switch(PacketOut{kPortFlood, kPortNone, p});
  f.run();
  ASSERT_EQ(f.host1.size(), 1u);
  ASSERT_EQ(f.host2.size(), 2u);
  ASSERT_EQ(f.host3.size(), 1u);
  EXPECT_EQ(f.host1[0].get(), p.get());
  EXPECT_EQ(f.host2[1].get(), p.get());
  EXPECT_EQ(f.host3[0].get(), p.get());
}

// The Packet-In of a table miss carries the packet the link delivered.
TEST(Switch, PacketInCarriesTheDeliveredPacket) {
  SwitchFixture f;
  const net::PacketPtr p = shared(ping(1, 2));
  f.l1.send(Side::B, p);
  f.run();
  const auto pis = f.collect<PacketIn>();
  ASSERT_EQ(pis.size(), 1u);
  EXPECT_EQ(pis[0].packet.get(), p.get());
}

TEST(Switch, EchoRequestAnswered) {
  SwitchFixture f;
  f.channel.to_switch(EchoRequest{99});
  f.run();
  const auto replies = f.collect<EchoReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].token, 99u);
  EXPECT_EQ(replies[0].dpid, 0xAu);
}

TEST(Switch, FlowStatsIncludeMatchAndCounters) {
  SwitchFixture f;
  FlowMod fm;
  fm.cookie = 77;
  fm.match.dst_mac = net::MacAddress::host(2);
  fm.action = FlowAction::output(2);
  f.channel.to_switch(fm);
  f.run();
  f.l1.send(Side::B, ping(1, 2));
  f.run();
  f.channel.to_switch(FlowStatsRequest{5});
  f.run();
  const auto stats = f.collect<FlowStatsReply>();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].xid, 5u);
  ASSERT_EQ(stats[0].entries.size(), 1u);
  EXPECT_EQ(stats[0].entries[0].cookie, 77u);
  EXPECT_EQ(stats[0].entries[0].packet_count, 1u);
  EXPECT_EQ(stats[0].entries[0].match.dst_mac, net::MacAddress::host(2));
}

TEST(Switch, DeleteMatchingEmitsFlowRemoved) {
  SwitchFixture f;
  FlowMod fm;
  fm.cookie = 12;
  fm.match.dst_mac = net::MacAddress::host(2);
  fm.action = FlowAction::output(2);
  f.channel.to_switch(fm);
  f.run();
  FlowMod del;
  del.command = FlowMod::Command::DeleteMatching;
  del.match = fm.match;
  f.channel.to_switch(del);
  f.run();
  const auto removed = f.collect<FlowRemoved>();
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].cookie, 12u);
  EXPECT_EQ(removed[0].reason, FlowRemoved::Reason::Delete);
}

TEST(Switch, IdleExpiryEmitsFlowRemoved) {
  SwitchFixture f;
  FlowMod fm;
  fm.cookie = 13;
  fm.match.dst_mac = net::MacAddress::host(2);
  fm.action = FlowAction::output(2);
  fm.idle_timeout = 2_s;
  f.channel.to_switch(fm);
  f.run(Duration::seconds(5));
  const auto removed = f.collect<FlowRemoved>();
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].reason, FlowRemoved::Reason::IdleTimeout);
}

// --- Link-integrity pulse semantics (the physics behind Port Amnesia) ---

TEST(Switch, SustainedCarrierLossEmitsPortDown) {
  SwitchFixture f;
  f.l1.set_carrier(Side::B, false);
  f.run(Duration::millis(30));  // > the 24 ms detection-window maximum
  const auto events = f.collect<PortStatus>();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].reason, PortStatus::Reason::Down);
  EXPECT_EQ(events[0].port, 1);
  EXPECT_FALSE(f.sw.port_oper_up(1));
}

TEST(Switch, FastFlapIsInvisible) {
  // A flap shorter than the minimum link-integrity window (8 ms) can
  // never be detected: no Port-Down, no Port-Up.
  SwitchFixture f;
  f.l1.set_carrier(Side::B, false);
  f.loop.run_until(f.loop.now() + Duration::millis(5));
  f.l1.set_carrier(Side::B, true);
  f.run(Duration::millis(100));
  EXPECT_TRUE(f.collect<PortStatus>().empty());
  EXPECT_TRUE(f.sw.port_oper_up(1));
}

TEST(Switch, SlowFlapEmitsDownThenUp) {
  SwitchFixture f;
  f.l1.set_carrier(Side::B, false);
  f.loop.run_until(f.loop.now() + Duration::millis(30));
  f.l1.set_carrier(Side::B, true);
  f.run(Duration::millis(100));
  const auto events = f.collect<PortStatus>();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].reason, PortStatus::Reason::Down);
  EXPECT_EQ(events[1].reason, PortStatus::Reason::Up);
  EXPECT_TRUE(f.sw.port_oper_up(1));
}

TEST(Switch, OperDownPortDropsRx) {
  SwitchFixture f;
  f.l1.set_carrier(Side::B, false);
  f.run(Duration::millis(30));
  ASSERT_FALSE(f.sw.port_oper_up(1));
  // Carrier restored; frames sent before the up-detect window closes
  // are dropped.
  f.l1.set_carrier(Side::B, true);
  f.l1.send(Side::B, ping(1, 2));
  f.run(Duration::millis(100));
  EXPECT_TRUE(f.collect<PacketIn>().empty());
  // After detection, traffic flows again.
  f.l1.send(Side::B, ping(1, 2));
  f.run();
  EXPECT_EQ(f.collect<PacketIn>().size(), 1u);
}

TEST(Switch, DownPortExcludedFromFlood) {
  SwitchFixture f;
  f.l2.set_carrier(Side::B, false);
  f.run(Duration::millis(30));
  f.channel.to_switch(PacketOut{kPortFlood, kPortNone, shared(ping(9, 2))});
  f.run();
  EXPECT_EQ(f.host1.size(), 1u);
  EXPECT_EQ(f.host3.size(), 1u);
  EXPECT_TRUE(f.host2.empty());
}

TEST(Switch, PortsListed) {
  SwitchFixture f;
  EXPECT_EQ(f.sw.ports(), (std::vector<PortNo>{1, 2, 3}));
  EXPECT_EQ(f.sw.dpid(), 0xAu);
}

// Ports attached out of order and far apart: the sorted port table must
// list, flood and report them in ascending order, reject a duplicate,
// and throw on an unknown port like the old std::map::at did.
TEST(Switch, SparsePortNumbers) {
  EventLoop loop;
  ControlChannel channel{loop, Rng{7}, sim::make_fixed(1_ms)};
  Switch sw{loop, Rng{11}, 0xB, channel};
  std::vector<SwitchToCtrl> inbox;
  channel.attach_controller(
      [&inbox](const SwitchToCtrl& m) { inbox.push_back(m); });
  DataLink l300{loop, Rng{8}, sim::make_fixed(100_us)};
  DataLink l1{loop, Rng{9}, sim::make_fixed(100_us)};
  DataLink l7{loop, Rng{10}, sim::make_fixed(100_us)};
  std::vector<PortNo> delivered;  // far-side port of each delivery
  const auto tap = [&delivered](PortNo port) {
    return DataLink::Peer{
        [&delivered, port](const net::PacketPtr&) {
          delivered.push_back(port);
        },
        [](bool) {}};
  };
  sw.attach_link(300, l300, Side::A);
  sw.attach_link(1, l1, Side::A);
  sw.attach_link(7, l7, Side::A);
  l300.attach(Side::B, tap(300));
  l1.attach(Side::B, tap(1));
  l7.attach(Side::B, tap(7));

  EXPECT_EQ(sw.ports(), (std::vector<PortNo>{1, 7, 300}));

  FlowMod fm;
  fm.action = FlowAction::flood();
  channel.to_switch(fm);
  loop.run_until(loop.now() + 10_ms);
  l7.send(Side::B, ping(1, 2));
  loop.run_until(loop.now() + 10_ms);
  EXPECT_EQ(delivered, (std::vector<PortNo>{1, 300}));

  channel.to_switch(PortStatsRequest{1});
  loop.run_until(loop.now() + 10_ms);
  std::vector<PortNo> reported;
  for (const auto& m : inbox) {
    if (const auto* reply = std::get_if<PortStatsReply>(&m)) {
      for (const auto& e : reply->entries) reported.push_back(e.port);
    }
  }
  EXPECT_EQ(reported, (std::vector<PortNo>{1, 7, 300}));
  EXPECT_EQ(sw.port_stats(7).rx_packets, 1u);
  EXPECT_EQ(sw.port_stats(300).tx_packets, 1u);

  DataLink spare{loop, Rng{12}, sim::make_fixed(100_us)};
  EXPECT_THROW(sw.attach_link(7, spare, Side::A), std::logic_error);
  EXPECT_THROW((void)sw.port_stats(2), std::out_of_range);
  EXPECT_EQ(sw.ports(), (std::vector<PortNo>{1, 7, 300}));
}

TEST(Location, Formatting) {
  EXPECT_EQ((Location{0x2, 5}).to_string(), "0x2:5");
  EXPECT_LT((Location{0x1, 9}), (Location{0x2, 1}));
}

}  // namespace
}  // namespace tmg::of
