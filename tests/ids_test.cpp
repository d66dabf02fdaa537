// Tests for the Snort-surrogate IDS: the scan-detection landscape of
// paper Table I ("Stealth") and Sec. V-B2.
#include <gtest/gtest.h>

#include "ids/ids.hpp"
#include "sim/event_loop.hpp"

namespace tmg::ids {
namespace {

using namespace tmg::sim::literals;
using sim::Duration;
using sim::EventLoop;

struct Fixture {
  EventLoop loop;
  Ids ids{loop};

  Fixture() { ids.install_default_rules(); }

  void advance(Duration d) { loop.run_until(loop.now() + d); }

  net::Packet syn(std::uint32_t src, std::uint16_t sport,
                  std::size_t data = 0) {
    return net::make_tcp(net::MacAddress::host(src),
                         net::Ipv4Address::host(src),
                         net::MacAddress::host(99), net::Ipv4Address::host(99),
                         sport, 80, net::TcpFlags{.syn = true}, data);
  }

  net::Packet icmp(std::uint32_t src, std::uint16_t seq) {
    return net::make_icmp_echo(net::MacAddress::host(src),
                               net::Ipv4Address::host(src),
                               net::MacAddress::host(99),
                               net::Ipv4Address::host(99), 1, seq);
  }

  net::Packet arp(std::uint32_t src, std::uint32_t target) {
    return net::make_arp_request(net::MacAddress::host(src),
                                 net::Ipv4Address::host(src),
                                 net::Ipv4Address::host(target));
  }
};

// ---------------- TCP SYN scans ----------------

TEST(IdsSyn, SlowScanUndetected) {
  Fixture f;
  // 2 per second is exactly the ET threshold: not "above".
  for (int i = 0; i < 20; ++i) {
    f.ids.observe(f.syn(1, static_cast<std::uint16_t>(1000 + i)));
    f.advance(500_ms);
  }
  EXPECT_EQ(f.ids.alert_count("ET_SCAN_SYN"), 0u);
}

TEST(IdsSyn, FastScanDetected) {
  Fixture f;
  // 5 per second: above the 2/s Proofpoint threshold (Sec. V-B2).
  for (int i = 0; i < 10; ++i) {
    f.ids.observe(f.syn(1, static_cast<std::uint16_t>(1000 + i)));
    f.advance(200_ms);
  }
  EXPECT_GE(f.ids.alert_count("ET_SCAN_SYN"), 1u);
}

TEST(IdsSyn, DecoyDataEvades) {
  // nmap's evasion: SYNs carrying decoy data don't look like zero-data
  // scan flows (paper Sec. IV-B1).
  Fixture f;
  for (int i = 0; i < 10; ++i) {
    f.ids.observe(f.syn(1, static_cast<std::uint16_t>(1000 + i), 32));
    f.advance(100_ms);
  }
  EXPECT_EQ(f.ids.alert_count("ET_SCAN_SYN"), 0u);
}

TEST(IdsSyn, PerSourceTracking) {
  Fixture f;
  // Two sources each below threshold: no alert even though the combined
  // rate exceeds it.
  for (int i = 0; i < 10; ++i) {
    f.ids.observe(f.syn(i % 2 == 0 ? 1 : 2,
                        static_cast<std::uint16_t>(1000 + i)));
    f.advance(300_ms);
  }
  EXPECT_EQ(f.ids.alert_count("ET_SCAN_SYN"), 0u);
}

TEST(IdsSyn, SynAckNotCounted) {
  Fixture f;
  for (int i = 0; i < 10; ++i) {
    net::Packet p = f.syn(1, static_cast<std::uint16_t>(1000 + i));
    std::get<net::TcpPayload>(p.payload).flags.ack = true;  // handshake reply
    f.ids.observe(p);
    f.advance(100_ms);
  }
  EXPECT_EQ(f.ids.alert_count("ET_SCAN_SYN"), 0u);
}

// ---------------- ICMP sweeps ----------------

TEST(IdsIcmp, FrequentPingsDetected) {
  Fixture f;
  for (int i = 0; i < 10; ++i) {
    f.ids.observe(f.icmp(1, static_cast<std::uint16_t>(i)));
    f.advance(100_ms);
  }
  EXPECT_GE(f.ids.alert_count("ICMP_SWEEP"), 1u);
}

TEST(IdsIcmp, OccasionalPingsFine) {
  Fixture f;
  for (int i = 0; i < 10; ++i) {
    f.ids.observe(f.icmp(1, static_cast<std::uint16_t>(i)));
    f.advance(1_s);
  }
  EXPECT_EQ(f.ids.alert_count("ICMP_SWEEP"), 0u);
}

TEST(IdsIcmp, EchoRepliesNotCounted) {
  Fixture f;
  for (int i = 0; i < 10; ++i) {
    f.ids.observe(net::make_icmp_echo(
        net::MacAddress::host(1), net::Ipv4Address::host(1),
        net::MacAddress::host(99), net::Ipv4Address::host(99), 1,
        static_cast<std::uint16_t>(i), /*reply=*/true));
    f.advance(50_ms);
  }
  EXPECT_EQ(f.ids.alert_count("ICMP_SWEEP"), 0u);
}

// ---------------- ARP ----------------

TEST(IdsArp, TargetedLivenessProbeNeverDetected) {
  // The paper's key finding: ARP pings at the attack rate (20/s, one
  // repeated target) trigger nothing — neither Snort nor Bro has a rule
  // for it.
  Fixture f;
  for (int i = 0; i < 200; ++i) {
    f.ids.observe(f.arp(1, 42));
    f.advance(50_ms);  // paper: 1 probe every 50 ms
  }
  EXPECT_EQ(f.ids.alert_count(), 0u);
}

TEST(IdsArp, DiscoveryFloodDetected) {
  Fixture f;
  for (std::uint32_t t = 0; t < 30; ++t) {
    f.ids.observe(f.arp(1, 100 + t));  // distinct targets: subnet sweep
    f.advance(50_ms);
  }
  EXPECT_GE(f.ids.alert_count("ARP_DISCOVERY"), 1u);
}

TEST(IdsArp, SlowDiscoveryUndetected) {
  Fixture f;
  for (std::uint32_t t = 0; t < 30; ++t) {
    f.ids.observe(f.arp(1, 100 + t));
    f.advance(2_s);  // spread beyond the window
  }
  EXPECT_EQ(f.ids.alert_count("ARP_DISCOVERY"), 0u);
}

TEST(IdsArp, RepliesNotCounted) {
  Fixture f;
  for (int i = 0; i < 50; ++i) {
    f.ids.observe(net::make_arp_reply(
        net::MacAddress::host(1), net::Ipv4Address::host(1),
        net::MacAddress::host(2), net::Ipv4Address::host(2)));
    f.advance(10_ms);
  }
  EXPECT_EQ(f.ids.alert_count(), 0u);
}

// ---------------- Plumbing ----------------

TEST(Ids, CountsInspectedPackets) {
  Fixture f;
  f.ids.observe(f.icmp(1, 1));
  f.ids.observe(f.arp(1, 2));
  EXPECT_EQ(f.ids.packets_inspected(), 2u);
}

TEST(Ids, AlertCountByRule) {
  Fixture f;
  for (int i = 0; i < 10; ++i) {
    f.ids.observe(f.icmp(1, static_cast<std::uint16_t>(i)));
    f.advance(100_ms);
  }
  EXPECT_EQ(f.ids.alert_count("ET_SCAN_SYN"), 0u);
  EXPECT_EQ(f.ids.alert_count(), f.ids.alert_count("ICMP_SWEEP"));
  f.ids.clear_alerts();
  EXPECT_EQ(f.ids.alert_count(), 0u);
}

TEST(Ids, MonitorTapsLink) {
  EventLoop loop;
  Ids ids{loop};
  ids.install_default_rules();
  of::DataLink link{loop, sim::Rng{1}, sim::make_fixed(1_ms)};
  link.attach(of::Side::A, {{}, {}});
  link.attach(of::Side::B, {[](const net::PacketPtr&) {}, {}});
  ids.monitor(link);
  link.send(of::Side::A,
            net::make_arp_request(net::MacAddress::host(1),
                                  net::Ipv4Address::host(1),
                                  net::Ipv4Address::host(2)));
  loop.run();
  EXPECT_EQ(ids.packets_inspected(), 1u);
}

TEST(Ids, AlertCarriesOffenderAndTime) {
  Fixture f;
  for (int i = 0; i < 10; ++i) {
    f.ids.observe(f.syn(7, static_cast<std::uint16_t>(i)));
    f.advance(100_ms);
  }
  ASSERT_GE(f.ids.alert_count(), 1u);
  const IdsAlert& a = f.ids.alerts().front();
  EXPECT_EQ(a.offender, net::Ipv4Address::host(7));
  EXPECT_EQ(a.rule, "ET_SCAN_SYN");
  EXPECT_GT(a.time.count_nanos(), 0);
}

}  // namespace
}  // namespace tmg::ids
