// Scale / stress tests: discovery, routing and the defenses on larger
// randomized topologies than the paper's testbeds.
#include <gtest/gtest.h>

#include "ctrl/host_tracker.hpp"
#include "ctrl/link_discovery.hpp"
#include "ctrl/routing.hpp"
#include "defense/topoguard_plus.hpp"
#include "scenario/testbed.hpp"
#include "host_inbox.hpp"

namespace tmg::scenario {
namespace {

using namespace tmg::sim::literals;

/// Build a random connected topology: a spanning tree over `n` switches
/// plus `extra` redundant links, with one host per switch.
struct RandomNet {
  Testbed tb;
  std::vector<attack::Host*> hosts;
  std::size_t expected_links = 0;

  RandomNet(std::uint64_t seed, int n, int extra)
      : tb{[&] {
          TestbedOptions o;
          o.seed = seed;
          o.check_invariants = true;
          // Large nets: check sparsely so O(links) sweeps stay cheap.
          o.check_every_events = 4096;
          return o;
        }()} {
    sim::Rng rng{seed ^ 0xbeef};
    for (int i = 1; i <= n; ++i) tb.add_switch(static_cast<of::Dpid>(i));
    std::vector<of::PortNo> next_port(static_cast<std::size_t>(n) + 1, 10);
    const auto connect = [&](int a, int b) {
      tb.connect_switches(static_cast<of::Dpid>(a),
                          next_port[static_cast<std::size_t>(a)]++,
                          static_cast<of::Dpid>(b),
                          next_port[static_cast<std::size_t>(b)]++);
      ++expected_links;
    };
    for (int i = 2; i <= n; ++i) {
      connect(static_cast<int>(rng.uniform_int(1, i - 1)), i);
    }
    for (int e = 0; e < extra; ++e) {
      const int a = static_cast<int>(rng.uniform_int(1, n));
      const int b = static_cast<int>(rng.uniform_int(1, n));
      if (a != b) connect(a, b);
    }
    for (int i = 1; i <= n; ++i) {
      attack::HostConfig cfg;
      cfg.mac = net::MacAddress::host(static_cast<std::uint32_t>(i));
      cfg.ip = net::Ipv4Address::host(static_cast<std::uint32_t>(i));
      hosts.push_back(
          &tb.add_host(static_cast<of::Dpid>(i), 1, std::move(cfg)));
    }
  }
};

class ScaleSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int, int>> {};

TEST_P(ScaleSweep, DiscoveryFindsEveryLink) {
  const auto [seed, n, extra] = GetParam();
  RandomNet net{seed, n, extra};
  net.tb.start(2_s);
  EXPECT_EQ(net.tb.controller().topology().link_count(),
            net.expected_links);
}

TEST_P(ScaleSweep, AnyToAnyRoutingWorks) {
  const auto [seed, n, extra] = GetParam();
  RandomNet net{seed, n, extra};
  net.tb.start(2_s);
  // Everyone announces, then a sample of host pairs exchange pings.
  for (auto* h : net.hosts) h->send_arp_request(net.hosts[0]->ip());
  net.tb.run_for(1_s);
  sim::Rng rng{seed};
  int exchanged = 0;
  for (int trial = 0; trial < 8; ++trial) {
    auto* a = net.hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(net.hosts.size()) - 1))];
    auto* b = net.hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(net.hosts.size()) - 1))];
    if (a == b) continue;
    const testutil::Inbox a_rx{*a};
    a->send_ping(b->mac(), b->ip(), static_cast<std::uint16_t>(trial), 1);
    net.tb.run_for(500_ms);
    for (const auto& p : a_rx.packets()) {
      if (p.icmp() && p.icmp()->type == net::IcmpPayload::Type::EchoReply &&
          p.icmp()->ident == trial) {
        ++exchanged;
        break;
      }
    }
  }
  EXPECT_GE(exchanged, 6);  // nearly all sampled pairs (a==b trials skip)
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ScaleSweep,
    ::testing::Values(std::make_tuple(1ull, 8, 2),
                      std::make_tuple(2ull, 12, 4),
                      std::make_tuple(3ull, 20, 6),
                      std::make_tuple(4ull, 20, 0),   // pure tree
                      std::make_tuple(5ull, 6, 10))); // dense mesh

TEST(Scale, TopoGuardQuietOnLargeBenignNetwork) {
  RandomNet net{7, 15, 4};
  defense::install_topoguard(net.tb.controller());
  net.tb.start(2_s);
  for (auto* h : net.hosts) h->send_arp_request(net.hosts[0]->ip());
  net.tb.run_for(60_s);
  EXPECT_EQ(net.tb.controller().alerts().count(), 0u);
}

TEST(Scale, LinkFailureReroutesTraffic) {
  // Redundant topology: cutting one link must not partition reachability
  // once the controller notices (Port-Down tears the link immediately).
  Testbed tb{[] {
    TestbedOptions o;
    o.seed = 11;
    o.check_invariants = true;
    return o;
  }()};
  for (of::Dpid d = 1; d <= 4; ++d) tb.add_switch(d);
  // Ring: 1-2-3-4-1.
  tb.connect_switches(1, 10, 2, 11);
  tb.connect_switches(2, 10, 3, 11);
  tb.connect_switches(3, 10, 4, 11);
  of::DataLink& closing = tb.connect_switches(4, 10, 1, 11);
  attack::HostConfig c1;
  c1.mac = net::MacAddress::host(1);
  c1.ip = net::Ipv4Address::host(1);
  attack::Host& h1 = tb.add_host(1, 1, c1);
  attack::HostConfig c2;
  c2.mac = net::MacAddress::host(2);
  c2.ip = net::Ipv4Address::host(2);
  attack::Host& h2 = tb.add_host(4, 1, c2);
  tb.start(2_s);
  h1.send_arp_request(h2.ip());
  h2.send_arp_request(h1.ip());
  tb.run_for(500_ms);

  // Direct path 1-4 works.
  testutil::Inbox h1_rx{h1};
  h1.send_ping(h2.mac(), h2.ip(), 1, 1);
  tb.run_for(500_ms);
  bool before = false;
  for (const auto& p : h1_rx.packets()) {
    if (p.icmp() && p.icmp()->type == net::IcmpPayload::Type::EchoReply) {
      before = true;
    }
  }
  ASSERT_TRUE(before);

  // Cut the 4-1 link; old flow rules idle out; traffic re-routes the
  // long way around the ring.
  closing.set_carrier(of::Side::A, false);
  tb.run_for(6_s);  // rules (5s idle) expire
  EXPECT_EQ(tb.controller().topology().link_count(), 3u);
  h1_rx.clear();
  h1.send_ping(h2.mac(), h2.ip(), 2, 1);
  tb.run_for(500_ms);
  bool after = false;
  for (const auto& p : h1_rx.packets()) {
    if (p.icmp() && p.icmp()->type == net::IcmpPayload::Type::EchoReply &&
        p.icmp()->ident == 2) {
      after = true;
    }
  }
  EXPECT_TRUE(after);
}

}  // namespace
}  // namespace tmg::scenario
