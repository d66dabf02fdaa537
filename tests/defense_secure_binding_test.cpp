// Tests for the secure identifier binding defense (paper Sec. VI-A):
// 802.1x-style credentials cryptographically bound to MAC/IP, the
// prescribed countermeasure against Port Probing.
#include <gtest/gtest.h>

#include "ctrl/host_tracker.hpp"
#include "defense/secure_binding.hpp"
#include "scenario/experiments.hpp"
#include "scenario/testbed.hpp"
#include "host_inbox.hpp"

namespace tmg::defense {
namespace {

using namespace tmg::sim::literals;
using ctrl::AlertType;
using scenario::Testbed;
using scenario::TestbedOptions;

struct SbNet {
  Testbed tb{TestbedOptions{}};
  attack::Host* alice;     // enrolled, token 0xA
  attack::Host* mallory;   // enrolled as itself, token 0xB
  attack::Host* ghost;     // NOT enrolled (no credential)
  of::DataLink* spare;     // empty access port (0x1, 4)
  SecureBinding* sb;

  SbNet() {
    tb.add_switch(0x1);
    attack::HostConfig a;
    a.mac = net::MacAddress::host(1);
    a.ip = net::Ipv4Address::host(1);
    a.auth_token = 0xA;
    alice = &tb.add_host(0x1, 1, a);
    attack::HostConfig m;
    m.mac = net::MacAddress::host(2);
    m.ip = net::Ipv4Address::host(2);
    m.auth_token = 0xB;
    mallory = &tb.add_host(0x1, 2, m);
    attack::HostConfig g;
    g.mac = net::MacAddress::host(3);
    g.ip = net::Ipv4Address::host(3);
    g.auth_token = 0;  // supplicant disabled
    ghost = &tb.add_host(0x1, 3, g);
    spare = &tb.add_access_link(0x1, 4);

    SecureBindingConfig cfg;
    cfg.registry[0xA] = Enrollment{"alice", a.mac, a.ip};
    cfg.registry[0xB] = Enrollment{"mallory", m.mac, m.ip};
    sb = &install_secure_binding(tb.controller(), cfg);
  }

  [[nodiscard]] std::optional<of::Location> loc_of(net::MacAddress mac) {
    const auto rec = tb.controller().host_tracker().find(mac);
    if (!rec) return std::nullopt;
    return rec->loc;
  }
};

TEST(SecureBinding, EnrolledHostBindsNormally) {
  SbNet net;
  net.tb.start(1_s);
  net.alice->send_arp_request(net.mallory->ip());
  net.tb.run_for(200_ms);
  EXPECT_EQ(net.loc_of(net.alice->mac()), (of::Location{0x1, 1}));
  EXPECT_GE(net.sb->auth_successes(), 2u);  // alice + mallory supplicants
  EXPECT_EQ(net.sb->bindings_blocked(), 0u);
}

TEST(SecureBinding, AuthenticatedDeviceLookup) {
  SbNet net;
  net.tb.start(1_s);
  const Enrollment* dev = net.sb->authenticated_device(of::Location{0x1, 1});
  ASSERT_NE(dev, nullptr);
  EXPECT_EQ(dev->device_name, "alice");
  EXPECT_EQ(net.sb->authenticated_device(of::Location{0x1, 4}), nullptr);
}

TEST(SecureBinding, UnenrolledHostCannotBind) {
  SbNet net;
  net.tb.start(1_s);
  net.ghost->send_arp_request(net.alice->ip());
  net.tb.run_for(200_ms);
  EXPECT_FALSE(net.loc_of(net.ghost->mac()).has_value());
  EXPECT_TRUE(
      net.tb.controller().alerts().any(AlertType::SecureBindingViolation));
  EXPECT_GE(net.sb->bindings_blocked(), 1u);
}

TEST(SecureBinding, SpoofedIdentifiersBlocked) {
  // Mallory is authenticated — as mallory. Claiming alice's identifiers
  // fails even from an authenticated port.
  SbNet net;
  net.tb.start(1_s);
  net.alice->send_arp_request(net.mallory->ip());
  net.tb.run_for(200_ms);
  net.mallory->send(
      net::make_arp_request(net.alice->mac(), net.alice->ip(),
                            net.alice->ip()));
  net.tb.run_for(200_ms);
  EXPECT_EQ(net.loc_of(net.alice->mac()), (of::Location{0x1, 1}));
  EXPECT_TRUE(
      net.tb.controller().alerts().any(AlertType::SecureBindingViolation));
}

TEST(SecureBinding, HijackDuringMigrationBlocked) {
  // The Port Probing race: alice unplugs, mallory immediately claims her
  // identity. The race is won — and the binding still rejected, because
  // mallory's credential doesn't carry alice's identifiers.
  SbNet net;
  net.tb.start(1_s);
  net.alice->send_arp_request(net.mallory->ip());
  net.tb.run_for(200_ms);
  net.alice->detach_link();
  net.tb.run_for(100_ms);
  net.mallory->send(net::make_arp_request(net.alice->mac(), net.alice->ip(),
                                          net.alice->ip()));
  net.tb.run_for(200_ms);
  EXPECT_EQ(net.loc_of(net.alice->mac()), (of::Location{0x1, 1}));
  EXPECT_GE(net.sb->bindings_blocked(), 1u);
}

TEST(SecureBinding, LegitimateMigrationAllowed) {
  // Alice moves to the spare port; her supplicant re-authenticates on
  // link-up and the re-binding is accepted.
  SbNet net;
  net.tb.start(1_s);
  net.alice->send_arp_request(net.mallory->ip());
  net.tb.run_for(200_ms);
  scenario::migrate_host(net.tb, *net.alice, *net.spare, 500_ms);
  net.tb.run_for(600_ms);
  net.alice->send_arp_request(net.mallory->ip());
  net.tb.run_for(200_ms);
  EXPECT_EQ(net.loc_of(net.alice->mac()), (of::Location{0x1, 4}));
  EXPECT_EQ(net.sb->bindings_blocked(), 0u);
}

TEST(SecureBinding, PortDownEndsAuthSession) {
  SbNet net;
  net.tb.start(1_s);
  ASSERT_NE(net.sb->authenticated_device(of::Location{0x1, 1}), nullptr);
  net.alice->detach_link();
  net.tb.run_for(100_ms);  // Port-Down detected
  EXPECT_EQ(net.sb->authenticated_device(of::Location{0x1, 1}), nullptr);
}

TEST(SecureBinding, UnknownCredentialAlerts) {
  SbNet net;
  net.tb.start(1_s);
  // A forged auth frame with a made-up token.
  net.ghost->send(net::make_auth_frame(net.ghost->mac(), net.ghost->ip(),
                                       0xDEADBEEF));
  net.tb.run_for(100_ms);
  EXPECT_GE(net.sb->auth_failures(), 1u);
  EXPECT_TRUE(
      net.tb.controller().alerts().any(AlertType::SecureBindingViolation));
}

TEST(SecureBinding, MonitorOnlyModeAlertsWithoutBlocking) {
  Testbed tb{TestbedOptions{}};
  tb.add_switch(0x1);
  attack::HostConfig g;
  g.mac = net::MacAddress::host(9);
  g.ip = net::Ipv4Address::host(9);
  attack::Host& ghost = tb.add_host(0x1, 1, g);
  SecureBindingConfig cfg;
  cfg.block = false;
  install_secure_binding(tb.controller(), cfg);
  tb.start(1_s);
  ghost.send_arp_request(net::Ipv4Address::host(8));
  tb.run_for(200_ms);
  // Alert raised but the (unenrolled) binding went through.
  EXPECT_TRUE(
      tb.controller().alerts().any(AlertType::SecureBindingViolation));
  EXPECT_TRUE(tb.controller().host_tracker().find(g.mac).has_value());
}

TEST(SecureBinding, AuthFramesAreLinkLocal) {
  // EAPOL must never be forwarded to other hosts.
  SbNet net;
  const testutil::Inbox mallory_rx{*net.mallory};
  net.tb.start(1_s);
  for (const auto& pkt : mallory_rx.packets()) {
    EXPECT_FALSE(pkt.raw() && pkt.raw()->label == net::auth_frame_label());
  }
}

TEST(SecureBinding, FullPortProbingAttackDefeated) {
  // End-to-end: the paper's port probing attack vs. the Sec. VI-A
  // defense, on the Fig. 2 testbed through the standard driver.
  scenario::HijackConfig cfg;
  cfg.suite = scenario::DefenseSuite::SecureBinding;
  cfg.seed = 7;
  const auto out = scenario::run_hijack(cfg);
  EXPECT_FALSE(out.hijack_succeeded);
  EXPECT_FALSE(out.traffic_redirected);
  // The attempt is not silent: the violation is attributable to the
  // attacker's port (unlike the TopoGuard/SPHINX alert ambiguity).
  std::size_t violations = 0;
  for (const auto& a : out.alerts) {
    if (a.type == AlertType::SecureBindingViolation) ++violations;
  }
  EXPECT_GE(violations, 1u);
}

TEST(SecureBinding, HijackStillSucceedsWithoutIt) {
  // Control: same seed, defenses without identifier binding lose.
  scenario::HijackConfig cfg;
  cfg.suite = scenario::DefenseSuite::TopoGuardAndSphinx;
  cfg.seed = 7;
  const auto out = scenario::run_hijack(cfg);
  EXPECT_TRUE(out.hijack_succeeded);
}

}  // namespace
}  // namespace tmg::defense
