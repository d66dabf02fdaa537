// Tests for the attacker framework: host model, NIC latency models,
// out-of-band channel, liveness probes, port-probing attack mechanics.
#include <gtest/gtest.h>

#include <optional>

#include "attack/alert_flood.hpp"
#include "attack/nic_model.hpp"
#include "attack/oob_channel.hpp"
#include "attack/port_probing.hpp"
#include "attack/probes.hpp"
#include "ctrl/host_tracker.hpp"
#include "scenario/testbed.hpp"
#include "stats/descriptive.hpp"
#include "host_inbox.hpp"

namespace tmg::attack {
namespace {

using namespace tmg::sim::literals;
using scenario::Testbed;
using scenario::TestbedOptions;
using sim::Duration;

scenario::TestbedOptions checked_options() {
  scenario::TestbedOptions opts;
  opts.check_invariants = true;  // runtime invariant checker (src/check)
  return opts;
}

struct Lab {
  Testbed tb{checked_options()};
  Host* attacker;
  Host* victim;
  Host* zombie;
  // Everything each host receives, from before start-up on.
  std::optional<testutil::Inbox> attacker_rx, victim_rx, zombie_rx;

  Lab() {
    tb.add_switch(0x1);
    HostConfig a;
    a.mac = net::MacAddress::host(0xA);
    a.ip = net::Ipv4Address::host(10);
    attacker = &tb.add_host(0x1, 1, a);
    HostConfig v;
    v.mac = net::MacAddress::host(1);
    v.ip = net::Ipv4Address::host(1);
    v.open_tcp_ports = {80};
    victim = &tb.add_host(0x1, 2, v);
    HostConfig z;
    z.mac = net::MacAddress::host(2);
    z.ip = net::Ipv4Address::host(2);
    z.idle_scan_zombie = true;
    zombie = &tb.add_host(0x1, 3, z);
    attacker_rx.emplace(*attacker);
    victim_rx.emplace(*victim);
    zombie_rx.emplace(*zombie);
    tb.start(1_s);
  }

  void run(Duration d = 500_ms) { tb.run_for(d); }
};

// ---------------- Host auto-responders ----------------

TEST(Host, RepliesToArpForItsIp) {
  Lab lab;
  lab.attacker->send_arp_request(lab.victim->ip());
  lab.run();
  bool got_reply = false;
  for (const auto& p : lab.attacker_rx->packets()) {
    if (p.arp() && p.arp()->op == net::ArpPayload::Op::Reply &&
        p.arp()->sender_ip == lab.victim->ip()) {
      got_reply = true;
      EXPECT_EQ(p.arp()->sender_mac, lab.victim->mac());
    }
  }
  EXPECT_TRUE(got_reply);
}

TEST(Host, IgnoresArpForOtherIps) {
  Lab lab;
  lab.attacker->send_arp_request(net::Ipv4Address::host(200));
  lab.run();
  for (const auto& p : lab.attacker_rx->packets()) {
    EXPECT_FALSE(p.arp() && p.arp()->op == net::ArpPayload::Op::Reply);
  }
}

TEST(Host, RepliesToIcmpEcho) {
  Lab lab;
  lab.attacker->send_ping(lab.victim->mac(), lab.victim->ip(), 7, 1);
  lab.run();
  bool got = false;
  for (const auto& p : lab.attacker_rx->packets()) {
    if (p.icmp() && p.icmp()->type == net::IcmpPayload::Type::EchoReply &&
        p.icmp()->ident == 7) {
      got = true;
    }
  }
  EXPECT_TRUE(got);
}

TEST(Host, SynToOpenPortGetsSynAck) {
  Lab lab;
  lab.attacker->send(net::make_tcp(lab.attacker->mac(), lab.attacker->ip(),
                                   lab.victim->mac(), lab.victim->ip(), 5555,
                                   80, net::TcpFlags{.syn = true}));
  lab.run();
  bool got = false;
  for (const auto& p : lab.attacker_rx->packets()) {
    if (p.tcp() && p.tcp()->flags.syn && p.tcp()->flags.ack &&
        p.tcp()->dst_port == 5555) {
      got = true;
    }
  }
  EXPECT_TRUE(got);
}

TEST(Host, SynToClosedPortGetsRst) {
  Lab lab;
  lab.attacker->send(net::make_tcp(lab.attacker->mac(), lab.attacker->ip(),
                                   lab.victim->mac(), lab.victim->ip(), 5556,
                                   8080, net::TcpFlags{.syn = true}));
  lab.run();
  bool got = false;
  for (const auto& p : lab.attacker_rx->packets()) {
    if (p.tcp() && p.tcp()->flags.rst && p.tcp()->dst_port == 5556) got = true;
  }
  EXPECT_TRUE(got);
}

TEST(Host, ZombieRstsUnsolicitedSynAckWithSequentialIpId) {
  Lab lab;
  auto send_synack = [&](std::uint16_t sport) {
    lab.attacker->send(net::make_tcp(
        lab.attacker->mac(), lab.attacker->ip(), lab.zombie->mac(),
        lab.zombie->ip(), sport, 80, net::TcpFlags{.syn = true, .ack = true}));
  };
  send_synack(6000);
  lab.run();
  send_synack(6001);
  lab.run();
  std::vector<std::uint16_t> ipids;
  for (const auto& p : lab.attacker_rx->packets()) {
    if (p.tcp() && p.tcp()->flags.rst && p.ip &&
        p.ip->src == lab.zombie->ip()) {
      ipids.push_back(p.ip->ident);
    }
  }
  ASSERT_EQ(ipids.size(), 2u);
  EXPECT_EQ(ipids[1], static_cast<std::uint16_t>(ipids[0] + 1));
}

TEST(Host, NonZombieIgnoresUnsolicitedSynAck) {
  Lab lab;
  lab.attacker->send(net::make_tcp(
      lab.attacker->mac(), lab.attacker->ip(), lab.victim->mac(),
      lab.victim->ip(), 6002, 80, net::TcpFlags{.syn = true, .ack = true}));
  lab.run();
  for (const auto& p : lab.attacker_rx->packets()) {
    EXPECT_FALSE(p.tcp() && p.tcp()->flags.rst && p.tcp()->dst_port == 6002);
  }
}

TEST(Host, DownInterfaceSilent) {
  Lab lab;
  lab.victim->set_interface(false);
  lab.run(100_ms);
  lab.attacker_rx->clear();
  lab.attacker->send_arp_request(lab.victim->ip());
  lab.run();
  for (const auto& p : lab.attacker_rx->packets()) {
    EXPECT_FALSE(p.arp() && p.arp()->op == net::ArpPayload::Op::Reply);
  }
}

TEST(Host, HookConsumesBeforeResponder) {
  Lab lab;
  int hooked = 0;
  lab.victim->set_packet_hook([&](const net::Packet&) {
    ++hooked;
    return true;  // consume everything
  });
  lab.attacker->send_ping(lab.victim->mac(), lab.victim->ip(), 9, 1);
  lab.run();
  EXPECT_GT(hooked, 0);
  for (const auto& p : lab.attacker_rx->packets()) {
    EXPECT_FALSE(p.icmp() &&
                 p.icmp()->type == net::IcmpPayload::Type::EchoReply);
  }
}

TEST(Host, ListenerObservesWithoutConsuming) {
  Lab lab;
  int listened = 0;
  lab.victim->add_listener([&](const net::Packet&) { ++listened; });
  lab.attacker->send_ping(lab.victim->mac(), lab.victim->ip(), 9, 1);
  lab.run();
  EXPECT_GT(listened, 0);
  bool got_reply = false;
  for (const auto& p : lab.attacker_rx->packets()) {
    if (p.icmp() && p.icmp()->type == net::IcmpPayload::Type::EchoReply) {
      got_reply = true;
    }
  }
  EXPECT_TRUE(got_reply);  // responder still ran
}

TEST(Host, IdentityChangeGoesThroughDownWindow) {
  Lab lab;
  const auto new_mac = net::MacAddress::host(0xEE);
  const auto new_ip = net::Ipv4Address::host(99);
  bool done = false;
  lab.victim->change_identity_timed(new_mac, new_ip,
                                    NicOpModel::identity_change(),
                                    [&] { done = true; });
  EXPECT_FALSE(lab.victim->interface_up());
  lab.run(1_s);
  EXPECT_TRUE(done);
  EXPECT_TRUE(lab.victim->interface_up());
  EXPECT_EQ(lab.victim->mac(), new_mac);
  EXPECT_EQ(lab.victim->ip(), new_ip);
}

TEST(Host, ArpCacheLearnsFromSenderFields) {
  Lab lab;
  EXPECT_FALSE(lab.victim->arp_lookup(lab.attacker->ip()).has_value());
  lab.attacker->send_arp_request(lab.victim->ip());  // broadcast: all learn
  lab.run();
  const auto cached = lab.victim->arp_lookup(lab.attacker->ip());
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(*cached, lab.attacker->mac());
}

TEST(Host, SendResolvedQueriesArpOnMiss) {
  Lab lab;
  // No prior contact: resolution must run a real ARP exchange first.
  lab.victim_rx->clear();
  lab.attacker->send_resolved(
      lab.victim->ip(),
      net::make_icmp_echo(lab.attacker->mac(), lab.attacker->ip(),
                          net::MacAddress{}, lab.victim->ip(), 42, 1));
  lab.run();
  bool got_arp = false, got_ping = false;
  for (const auto& p : lab.victim_rx->packets()) {
    if (p.arp() && p.arp()->op == net::ArpPayload::Op::Request) got_arp = true;
    if (p.icmp() && p.icmp()->ident == 42) {
      got_ping = true;
      EXPECT_EQ(p.dst_mac, lab.victim->mac());  // resolved, not placeholder
    }
  }
  EXPECT_TRUE(got_arp);
  EXPECT_TRUE(got_ping);
}

TEST(Host, SendResolvedDropsWhenTargetGone) {
  Lab lab;
  lab.victim->set_interface(false);
  lab.run(100_ms);
  lab.attacker->send_resolved(
      lab.victim->ip(),
      net::make_icmp_echo(lab.attacker->mac(), lab.attacker->ip(),
                          net::MacAddress{}, lab.victim->ip(), 43, 1));
  lab.run(2_s);  // the 1 s resolve timeout elapses, queue dropped silently
  lab.victim->set_interface(true);
  lab.run(200_ms);
  for (const auto& p : lab.victim_rx->packets()) {
    EXPECT_FALSE(p.icmp() && p.icmp()->ident == 43);
  }
}

TEST(Host, IpSpoofedProbeElicitsReplyTowardClaimedSource) {
  // The idle-scan enabler: a SYN claiming the zombie's IP (attacker's
  // MAC) must make the victim SYN-ACK the *zombie*, not the attacker.
  Lab lab;
  lab.zombie_rx->clear();
  lab.attacker->send(net::make_tcp(lab.attacker->mac(), lab.zombie->ip(),
                                   lab.victim->mac(), lab.victim->ip(), 7777,
                                   80, net::TcpFlags{.syn = true}));
  lab.run();
  bool zombie_got_synack = false;
  for (const auto& p : lab.zombie_rx->packets()) {
    if (p.tcp() && p.tcp()->flags.syn && p.tcp()->flags.ack &&
        p.tcp()->dst_port == 7777) {
      zombie_got_synack = true;
    }
  }
  EXPECT_TRUE(zombie_got_synack);
  for (const auto& p : lab.attacker_rx->packets()) {
    EXPECT_FALSE(p.tcp() && p.tcp()->dst_port == 7777);
  }
}

// ---------------- NIC models ----------------

TEST(NicOpModel, MeansMatchPaper) {
  EXPECT_NEAR(NicOpModel::interface_flap().mean().to_millis_f(), 3.25, 0.01);
  EXPECT_NEAR(NicOpModel::identity_change().mean().to_millis_f(), 9.94, 0.01);
}

TEST(NicOpModel, SampledMeanApproximatesAnalytic) {
  sim::Rng rng{5};
  const NicOpModel m = NicOpModel::identity_change();
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += m.sample(rng).to_millis_f();
  EXPECT_NEAR(sum / n, 9.94, 0.3);
}

TEST(NicOpModel, IdentityChangeHasHeavyTail) {
  // Paper Fig. 4: trials out to ~160 ms.
  sim::Rng rng{6};
  const NicOpModel m = NicOpModel::identity_change();
  double max_ms = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    max_ms = std::max(max_ms, m.sample(rng).to_millis_f());
  }
  EXPECT_GT(max_ms, 60.0);
  EXPECT_LT(max_ms, 800.0);
}

// ---------------- Out-of-band channel ----------------

TEST(OobChannel, TransferDelayMatchesConfig) {
  sim::EventLoop loop;
  OutOfBandChannel ch{loop, sim::Rng{7}, OobChannelConfig{}};
  sim::SimTime delivered_at;
  ch.transfer(net::make_arp_request(net::MacAddress::host(1),
                                    net::Ipv4Address::host(1),
                                    net::Ipv4Address::host(2)),
              [&](net::Packet) { delivered_at = loop.now(); });
  loop.run();
  // 10 ms propagation + 1 ms codec, small jitter.
  EXPECT_NEAR(delivered_at.to_millis_f(), 11.0, 1.0);
  EXPECT_EQ(ch.transfers(), 1u);
}

TEST(OobChannel, SignalSchedulesAction) {
  sim::EventLoop loop;
  OutOfBandChannel ch{loop, sim::Rng{8}, OobChannelConfig{}};
  bool fired = false;
  ch.signal([&] { fired = true; });
  loop.run();
  EXPECT_TRUE(fired);
}

// ---------------- Liveness probes ----------------

LivenessProber::Config probe_cfg(ProbeType type) {
  LivenessProber::Config cfg;
  cfg.type = type;
  cfg.timeout = 35_ms;
  return cfg;
}

class ProbeSweep : public ::testing::TestWithParam<ProbeType> {};

TEST_P(ProbeSweep, DetectsLiveTarget) {
  Lab lab;
  LivenessProber::Config cfg = probe_cfg(GetParam());
  if (GetParam() == ProbeType::TcpIdleScan) {
    cfg.zombie = ZombieRef{lab.zombie->ip(), lab.zombie->mac()};
    cfg.timeout = 100_ms;
  }
  LivenessProber prober{lab.tb.loop(), lab.tb.fork_rng(), *lab.attacker, cfg};
  ProbeTarget target{lab.victim->ip(), lab.victim->mac(), 80};
  bool alive = false, done = false;
  prober.probe(target, [&](const ProbeOutcome& o) {
    alive = o.alive;
    done = true;
  });
  lab.run(1_s);
  ASSERT_TRUE(done);
  EXPECT_TRUE(alive);
}

TEST_P(ProbeSweep, DetectsDownTarget) {
  Lab lab;
  lab.victim->set_interface(false);
  lab.run(100_ms);
  LivenessProber::Config cfg = probe_cfg(GetParam());
  if (GetParam() == ProbeType::TcpIdleScan) {
    cfg.zombie = ZombieRef{lab.zombie->ip(), lab.zombie->mac()};
    cfg.timeout = 100_ms;
  }
  LivenessProber prober{lab.tb.loop(), lab.tb.fork_rng(), *lab.attacker, cfg};
  ProbeTarget target{lab.victim->ip(), lab.victim->mac(), 80};
  bool alive = true, done = false;
  prober.probe(target, [&](const ProbeOutcome& o) {
    alive = o.alive;
    done = true;
  });
  lab.run(1_s);
  ASSERT_TRUE(done);
  EXPECT_FALSE(alive);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, ProbeSweep,
                         ::testing::Values(ProbeType::IcmpPing,
                                           ProbeType::TcpSyn,
                                           ProbeType::ArpPing,
                                           ProbeType::TcpIdleScan));

TEST(Probes, TimeoutBoundsDownDetection) {
  Lab lab;
  lab.victim->set_interface(false);
  lab.run(100_ms);
  LivenessProber prober{lab.tb.loop(), lab.tb.fork_rng(), *lab.attacker,
                        probe_cfg(ProbeType::ArpPing)};
  ProbeTarget target{lab.victim->ip(), lab.victim->mac(), 80};
  std::optional<ProbeOutcome> outcome;
  prober.probe(target, [&](const ProbeOutcome& o) { outcome = o; });
  lab.run(1_s);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_NEAR(outcome->duration().to_millis_f(), 35.0, 0.5);
}

TEST(Probes, ClosedPortStillProvesLiveness) {
  Lab lab;
  LivenessProber::Config cfg = probe_cfg(ProbeType::TcpSyn);
  LivenessProber prober{lab.tb.loop(), lab.tb.fork_rng(), *lab.attacker, cfg};
  ProbeTarget target{lab.victim->ip(), lab.victim->mac(), 8080};  // closed
  bool alive = false;
  prober.probe(target, [&](const ProbeOutcome& o) { alive = o.alive; });
  lab.run(1_s);
  EXPECT_TRUE(alive);  // RST is still an answer
}

TEST(Probes, ToolOverheadMatchesTableI) {
  sim::Rng rng{11};
  const struct {
    ProbeType type;
    double mean_ms;
    double sd_ms;
  } rows[] = {
      {ProbeType::IcmpPing, 0.91, 0.04},
      {ProbeType::TcpSyn, 492.3, 1.4},
      {ProbeType::ArpPing, 133.5, 1.6},
      {ProbeType::TcpIdleScan, 1.8, 0.1},
  };
  for (const auto& row : rows) {
    std::vector<double> samples;
    for (int i = 0; i < 5000; ++i) {
      samples.push_back(sample_tool_overhead(row.type, rng).to_millis_f());
    }
    const auto s = stats::summarize(samples);
    EXPECT_NEAR(s.mean, row.mean_ms, row.mean_ms * 0.02 + 0.02)
        << to_string(row.type);
    EXPECT_NEAR(s.stddev, row.sd_ms, row.sd_ms * 0.1 + 0.01)
        << to_string(row.type);
  }
}

TEST(Probes, StealthRanking) {
  EXPECT_EQ(stealth_of(ProbeType::IcmpPing), Stealth::Low);
  EXPECT_EQ(stealth_of(ProbeType::TcpSyn), Stealth::Medium);
  EXPECT_EQ(stealth_of(ProbeType::ArpPing), Stealth::High);
  EXPECT_EQ(stealth_of(ProbeType::TcpIdleScan), Stealth::VeryHigh);
  EXPECT_STREQ(to_string(Stealth::VeryHigh), "Very High");
  EXPECT_STREQ(to_string(ProbeType::ArpPing), "ARP ping");
}

// ---------------- Port probing attack ----------------

TEST(PortProbing, AcquiresMacAndClaimsIdentity) {
  Lab lab;
  PortProbingConfig cfg;
  cfg.victim_ip = lab.victim->ip();
  PortProbingAttack attack{lab.tb.loop(), lab.tb.fork_rng(), *lab.attacker,
                           cfg};
  const auto victim_mac = lab.victim->mac();
  attack.start();
  lab.run(1_s);
  ASSERT_TRUE(attack.timeline().victim_mac_acquired.has_value());
  EXPECT_FALSE(attack.identity_claimed());  // victim still up
  lab.victim->detach_link();
  lab.run(2_s);
  EXPECT_TRUE(attack.identity_claimed());
  EXPECT_EQ(lab.attacker->mac(), victim_mac);
  EXPECT_EQ(lab.attacker->ip(), cfg.victim_ip);
  const auto& tl = attack.timeline();
  ASSERT_TRUE(tl.victim_declared_down.has_value());
  ASSERT_TRUE(tl.final_probe_start.has_value());
  ASSERT_TRUE(tl.interface_up_as_victim.has_value());
  ASSERT_TRUE(tl.traffic_sent.has_value());
  EXPECT_LT(*tl.final_probe_start, *tl.victim_declared_down);
  EXPECT_LT(*tl.victim_declared_down, *tl.interface_up_as_victim);
  EXPECT_LE(*tl.interface_up_as_victim, *tl.traffic_sent);
}

TEST(PortProbing, ConfirmFailuresDelaysDeclaration) {
  Lab lab;
  PortProbingConfig cfg;
  cfg.victim_ip = lab.victim->ip();
  cfg.confirm_failures = 3;
  PortProbingAttack attack{lab.tb.loop(), lab.tb.fork_rng(), *lab.attacker,
                           cfg};
  attack.start();
  lab.run(1_s);
  const auto down_at = lab.tb.loop().now();
  lab.victim->detach_link();
  lab.run(2_s);
  ASSERT_TRUE(attack.timeline().victim_declared_down.has_value());
  // Three failed probes at a 50 ms cadence with 35 ms timeouts: well
  // over 100 ms must elapse.
  EXPECT_GT((*attack.timeline().victim_declared_down - down_at).to_millis_f(),
            100.0);
}

TEST(PortProbing, NoFalseDeclarationWhileVictimUp) {
  Lab lab;
  PortProbingConfig cfg;
  cfg.victim_ip = lab.victim->ip();
  PortProbingAttack attack{lab.tb.loop(), lab.tb.fork_rng(), *lab.attacker,
                           cfg};
  attack.start();
  lab.run(5_s);  // ~100 probes against a live victim
  EXPECT_FALSE(attack.timeline().victim_declared_down.has_value());
  EXPECT_GT(attack.probes_run(), 50u);
}

// ---------------- Alert flood ----------------

TEST(AlertFlood, SendsSpoofedIdentities) {
  Lab lab;
  AlertFloodAttack::Config cfg;
  for (std::uint32_t i = 0; i < 5; ++i) {
    cfg.identities.push_back(SpoofedIdentity{net::MacAddress::host(100 + i),
                                             net::Ipv4Address::host(100 + i)});
  }
  cfg.period = 10_ms;
  cfg.budget = 20;
  AlertFloodAttack flood{lab.tb.loop(), lab.tb.fork_rng(), *lab.attacker, cfg};
  flood.start();
  lab.run(1_s);
  EXPECT_EQ(flood.packets_sent(), 20u);
  // All five spoofed identities got bound to the attacker's port.
  int bound = 0;
  for (std::uint32_t i = 0; i < 5; ++i) {
    const auto rec = lab.tb.controller().host_tracker().find(
        net::MacAddress::host(100 + i));
    if (rec && rec->loc == of::Location{0x1, 1}) ++bound;
  }
  EXPECT_EQ(bound, 5);
}

TEST(AlertFlood, EmptyIdentityListIsNoop) {
  Lab lab;
  AlertFloodAttack flood{lab.tb.loop(), lab.tb.fork_rng(), *lab.attacker,
                         AlertFloodAttack::Config{}};
  flood.start();
  lab.run(100_ms);
  EXPECT_EQ(flood.packets_sent(), 0u);
}

}  // namespace
}  // namespace tmg::attack
