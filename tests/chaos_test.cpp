// Chaos test: randomized host churn (joins, leaves, migrations, flaps,
// traffic) against the full defense stack for minutes of simulated
// time. Invariants: the control plane never wedges, the topology
// converges back to exactly the physical links, and host bindings match
// where hosts actually sit.
#include <gtest/gtest.h>

#include "ctrl/host_tracker.hpp"
#include "defense/topoguard_plus.hpp"
#include "scenario/testbed.hpp"
#include "host_inbox.hpp"

namespace tmg::scenario {
namespace {

using namespace tmg::sim::literals;

class Chaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Chaos, ControlPlaneSurvivesChurnAndConverges) {
  const std::uint64_t seed = GetParam();
  TestbedOptions opts;
  opts.seed = seed;
  opts.controller.authenticate_lldp = true;
  opts.controller.lldp_timestamps = true;
  opts.check_invariants = true;  // runtime invariant checker (src/check)
  Testbed tb{opts};

  constexpr int kSwitches = 6;
  for (of::Dpid d = 1; d <= kSwitches; ++d) tb.add_switch(d);
  // Ring plus one chord: survives any single link loss.
  std::size_t real_links = 0;
  for (int i = 1; i <= kSwitches; ++i) {
    tb.connect_switches(static_cast<of::Dpid>(i), 10,
                        static_cast<of::Dpid>(i % kSwitches + 1), 11);
    ++real_links;
  }
  tb.connect_switches(1, 12, 4, 12);
  ++real_links;

  struct Slot {
    attack::Host* host = nullptr;
    of::DataLink* home;
    of::DataLink* away;
    bool at_home = true;
  };
  std::vector<Slot> slots;
  for (int i = 0; i < kSwitches; ++i) {
    Slot s;
    s.home = &tb.add_access_link(static_cast<of::Dpid>(i + 1), 1);
    s.away = &tb.add_access_link(static_cast<of::Dpid>(i + 1), 2);
    attack::HostConfig cfg;
    cfg.mac = net::MacAddress::host(static_cast<std::uint32_t>(i + 1));
    cfg.ip = net::Ipv4Address::host(static_cast<std::uint32_t>(i + 1));
    s.host = &tb.add_host_on(*s.home, cfg);
    slots.push_back(s);
  }

  defense::install_topoguard_plus(tb.controller());
  tb.start(2_s);
  for (auto& s : slots) s.host->send_arp_request(slots[0].host->ip());
  tb.run_for(1_s);

  // Churn: random action every 100-400 ms of simulated time.
  sim::Rng rng{seed ^ 0xc4a05};
  for (int step = 0; step < 600; ++step) {
    Slot& s = slots[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(slots.size()) - 1))];
    switch (rng.uniform_int(0, 5)) {
      case 0:  // traffic burst
        if (s.host->interface_up()) {
          Slot& peer = slots[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(slots.size()) - 1))];
          s.host->send_ping(peer.host->mac(), peer.host->ip(), 0x7,
                            static_cast<std::uint16_t>(step));
        }
        break;
      case 1:  // brief outage
        s.host->flap_interface(
            sim::Duration::millis(rng.uniform_int(2, 60)));
        break;
      case 2:  // go dark for a while
        s.host->set_interface(false);
        break;
      case 3:  // come back
        s.host->set_interface(true);
        break;
      case 4: {  // migrate between this switch's two access ports
        // One migration at a time per host (a VM can't start a second
        // move while unplugged mid-flight).
        if (!s.host->interface_up() || !s.host->attached()) break;
        of::DataLink* target = s.at_home ? s.away : s.home;
        s.at_home = !s.at_home;
        migrate_host(tb, *s.host,  *target,
                     sim::Duration::millis(rng.uniform_int(50, 2000)));
        break;
      }
      case 5:  // ARP chatter
        if (s.host->interface_up()) {
          s.host->send_arp_request(
              net::Ipv4Address::host(static_cast<std::uint32_t>(
                  rng.uniform_int(1, kSwitches))));
        }
        break;
    }
    tb.run_for(sim::Duration::millis(rng.uniform_int(100, 400)));
  }

  // Quiesce: everyone online and chatty, then two discovery rounds.
  for (auto& s : slots) s.host->set_interface(true);
  tb.run_for(2_s);
  for (auto& s : slots) s.host->send_arp_request(slots[0].host->ip());
  tb.run_for(40_s);

  // Invariant 1: the topology holds exactly the physical links again.
  EXPECT_EQ(tb.controller().topology().link_count(), real_links);

  // Invariant 2: every host's binding matches the port it actually
  // occupies (home or away slot of its switch).
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const auto rec =
        tb.controller().host_tracker().find(slots[i].host->mac());
    ASSERT_TRUE(rec.has_value()) << "host " << i;
    EXPECT_EQ(rec->loc.dpid, static_cast<of::Dpid>(i + 1)) << "host " << i;
    const of::PortNo expect_port = slots[i].at_home ? 1 : 2;
    EXPECT_EQ(rec->loc.port, expect_port) << "host " << i;
  }

  // Invariant 3: end-to-end reachability across the ring.
  const testutil::Inbox rx{*slots[0].host};
  slots[0].host->send_ping(slots[3].host->mac(), slots[3].host->ip(), 0x9,
                           1);
  tb.run_for(1_s);
  bool replied = false;
  for (const auto& p : rx.packets()) {
    if (p.icmp() && p.icmp()->type == net::IcmpPayload::Type::EchoReply &&
        p.icmp()->ident == 0x9) {
      replied = true;
    }
  }
  EXPECT_TRUE(replied);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Chaos,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace tmg::scenario
