// Runtime invariant checker (src/check) end-to-end tests.
//
// Two families: healthy runs must be violation-free with the full
// battery exercised (clock, topology symmetry, discovery coherence,
// host bindings, port profiles, LLDP conservation), and deliberately
// corrupted state must make the checker raise InvariantViolation
// alerts. Plus the TMG_ASSERT / failure-handler plumbing itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/assert.hpp"
#include "check/invariants.hpp"
#include "ctrl/link_discovery.hpp"
#include "scenario/experiments.hpp"
#include "scenario/fig1_testbed.hpp"
#include "scenario/testbed.hpp"

namespace tmg::check {
namespace {

using namespace tmg::sim::literals;
using ctrl::AlertType;
using scenario::Testbed;
using scenario::TestbedOptions;

/// Manual-mode options: no periodic hook, no abort — tests drive
/// run_checks() themselves and observe violations as return values.
InvariantOptions manual_options() {
  InvariantOptions opts;
  opts.check_every_events = 0;
  opts.assert_on_violation = false;
  return opts;
}

struct TwoSwitchNet {
  Testbed tb;
  attack::Host* h1;
  attack::Host* h2;

  TwoSwitchNet() {
    tb.add_switch(0x1);
    tb.add_switch(0x2);
    tb.connect_switches(0x1, 10, 0x2, 10);
    attack::HostConfig a;
    a.mac = net::MacAddress::host(1);
    a.ip = net::Ipv4Address::host(1);
    h1 = &tb.add_host(0x1, 1, a);
    attack::HostConfig b;
    b.mac = net::MacAddress::host(2);
    b.ip = net::Ipv4Address::host(2);
    h2 = &tb.add_host(0x2, 1, b);
  }

  void warm() {
    tb.start();
    h1->send_arp_request(h2->ip());
    h2->send_arp_request(h1->ip());
    tb.run_for(500_ms);
  }
};

// ---------------------------------------------------------------------
// Healthy runs: the full battery passes, periodically and at teardown.
// ---------------------------------------------------------------------

TEST(InvariantChecker, HealthyRunIsViolationFree) {
  TwoSwitchNet net;
  InvariantChecker& checker = net.tb.enable_invariant_checker();
  net.warm();
  checker.final_check();
  EXPECT_GT(checker.checks_run(), 0u) << "periodic hook never fired";
  EXPECT_EQ(checker.violation_count(), 0u);
  EXPECT_EQ(net.tb.controller().alerts().count(AlertType::InvariantViolation),
            0u);
}

TEST(InvariantChecker, PeriodicCadenceFollowsEventCount) {
  TwoSwitchNet net;
  InvariantOptions opts;
  opts.check_every_events = 8;  // tight cadence: a small net is quiet
  InvariantChecker checker{net.tb.controller(), opts};
  net.tb.start();
  const std::uint64_t after_start = checker.checks_run();
  EXPECT_GT(after_start, 0u) << "warmup alone should trigger sweeps";
  net.tb.run_for(2_s);
  EXPECT_GT(checker.checks_run(), after_start)
      << "more events should mean more periodic sweeps";
  EXPECT_GE(checker.checks_run(), net.tb.loop().events_executed() / 8);
  EXPECT_EQ(checker.violation_count(), 0u);
}

TEST(InvariantChecker, Fig1AttackRunStaysClean) {
  // An in-progress fabrication attack stresses the LLDP classification
  // buckets (unsolicited/relayed probes); conservation must still hold.
  scenario::TestbedOptions opts;
  opts.check_invariants = true;
  scenario::Fig1Testbed f = scenario::make_fig1_testbed(opts);
  f.tb->start();
  scenario::fig1_warm_hosts(f);
  InvariantChecker* checker = f.tb->invariant_checker();
  ASSERT_NE(checker, nullptr);
  EXPECT_TRUE(checker->run_checks().empty());
  EXPECT_EQ(checker->violation_count(), 0u);
}

TEST(InvariantChecker, LldpLedgerBalancesAfterDiscovery) {
  // Invariant 6, inspected directly: every emission is matched, expired,
  // or still outstanding — nothing vanishes from the ledger.
  TwoSwitchNet net;
  net.warm();
  const auto acct = net.tb.controller().link_discovery().lldp_accounting();
  EXPECT_GT(acct.emitted, 0u);
  EXPECT_GT(acct.matched, 0u) << "the real link should have been matched";
  EXPECT_EQ(acct.emitted,
            acct.matched + acct.expired + acct.outstanding_unmatched);
}

// ---------------------------------------------------------------------
// Deliberate corruption: the checker must notice and raise alerts.
// ---------------------------------------------------------------------

TEST(InvariantChecker, TopologyCorruptionRaisesAlert) {
  TwoSwitchNet net;
  net.warm();
  InvariantChecker checker{net.tb.controller(), manual_options()};
  ASSERT_TRUE(checker.run_checks().empty()) << "clean before corruption";

  // Rip the discovered link out of the graph behind the discovery
  // service's back: the ledger still believes it is Active, so the
  // discovery/topology coherence invariant must fire.
  ASSERT_TRUE(net.tb.controller().topology().remove_link(
      of::Location{0x1, 10}, of::Location{0x2, 10}));

  const std::vector<std::string> violations = checker.run_checks();
  EXPECT_FALSE(violations.empty());
  EXPECT_GT(checker.violation_count(), 0u);
  EXPECT_GT(net.tb.controller().alerts().count(AlertType::InvariantViolation),
            0u);
  EXPECT_GT(net.tb.controller().alerts().count_from("InvariantChecker"), 0u);
}

TEST(InvariantChecker, IllegalProfileFlipRaisesAlert) {
  // Invariant 5: HOST -> SWITCH without an intervening Port-Down reset
  // is exactly the corruption Port Amnesia exploits in a real profiler.
  TwoSwitchNet net;
  net.warm();
  InvariantChecker checker{net.tb.controller(), manual_options()};

  const of::Location loc{0x1, 1};
  auto profile = defense::TopoGuard::PortType::Host;
  checker.watch_port_profiles(
      [&profile, loc] {
        InvariantChecker::ProfileSnapshot snap;
        snap[loc] = profile;
        return snap;
      },
      [](of::Location) -> std::optional<sim::SimTime> {
        return std::nullopt;  // no Port-Down ever observed
      });

  ASSERT_TRUE(checker.run_checks().empty()) << "baseline snapshot";
  profile = defense::TopoGuard::PortType::Switch;  // flip without reset
  const std::vector<std::string> violations = checker.run_checks();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("profile"), std::string::npos) << violations[0];
  EXPECT_TRUE(
      net.tb.controller().alerts().any(AlertType::InvariantViolation));
}

TEST(InvariantChecker, ProfileFlipAcrossResetIsLegal) {
  // The same HOST -> SWITCH flip is fine when a Port-Down reset happened
  // since the previous sweep — that is the legitimate Port Amnesia path.
  TwoSwitchNet net;
  net.warm();
  InvariantChecker checker{net.tb.controller(), manual_options()};

  const of::Location loc{0x1, 1};
  auto profile = defense::TopoGuard::PortType::Host;
  std::optional<sim::SimTime> reset_at;
  checker.watch_port_profiles(
      [&profile, loc] {
        InvariantChecker::ProfileSnapshot snap;
        snap[loc] = profile;
        return snap;
      },
      [&reset_at](of::Location) { return reset_at; });

  ASSERT_TRUE(checker.run_checks().empty());
  reset_at = net.tb.loop().now();  // Port-Down lands now...
  net.tb.run_for(10_ms);
  profile = defense::TopoGuard::PortType::Switch;  // ...then the flip
  EXPECT_TRUE(checker.run_checks().empty());
  EXPECT_EQ(checker.violation_count(), 0u);
}

/// A listener that only names itself and subscribes to `mask`.
class StubListener final : public ctrl::MessageListener {
 public:
  StubListener(std::string name, std::uint32_t mask)
      : name_{std::move(name)}, mask_{mask} {}
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::uint32_t subscriptions() const override { return mask_; }
  ctrl::Disposition on_message(const ctrl::PipelineMessage&,
                               ctrl::DispatchContext&) override {
    return ctrl::Disposition::Continue;
  }

 private:
  std::string name_;
  std::uint32_t mask_;
};

TEST(InvariantChecker, PipelineOffTheBandsRaisesAlert) {
  // Invariant 8: a broadcast-observe chain (OpenDaylight) carries no
  // verdict gate, and every listener subscribes to something.
  sim::EventLoop loop;
  ctrl::ControllerConfig config;
  config.profile = ctrl::opendaylight_profile();
  ctrl::Controller ctrl{loop, sim::Rng{1}, config};
  InvariantChecker checker{ctrl, InvariantOptions{0, false}};
  ASSERT_TRUE(checker.run_checks().empty()) << "clean before corruption";

  ctrl.pipeline().add_owned(
      ctrl::kVerdictGateSlot,
      std::make_unique<StubListener>(
          "verdict-gate", ctrl::mask_of(ctrl::MessageType::PacketIn)));
  ctrl.pipeline().add_owned(ctrl::kRoutingSlot + 100,
                            std::make_unique<StubListener>("deaf", 0));

  const std::vector<std::string> violations = checker.run_checks();
  const auto reported = [&violations](const std::string& text) {
    return std::any_of(violations.begin(), violations.end(),
                       [&text](const std::string& v) {
                         return v.find(text) != std::string::npos;
                       });
  };
  EXPECT_EQ(violations.size(), 2u);
  EXPECT_TRUE(reported("verdict gate installed in a broadcast-observe chain"));
  EXPECT_TRUE(reported("deaf subscribes to nothing"));
  EXPECT_EQ(ctrl.alerts().count(AlertType::InvariantViolation), 2u);
}

TEST(InvariantChecker, AssertOnViolationRoutesThroughFailureHandler) {
  TwoSwitchNet net;
  net.warm();
  InvariantOptions opts = manual_options();
  opts.assert_on_violation = true;
  InvariantChecker checker{net.tb.controller(), opts};

  int failures = 0;
  std::string last_msg;
  FailureHandler previous = set_failure_handler(
      [&](const char*, int, const char*, const std::string& msg) {
        ++failures;
        last_msg = msg;
      });

  net.tb.controller().topology().remove_link(of::Location{0x1, 10},
                                             of::Location{0x2, 10});
  checker.run_checks();
  set_failure_handler(std::move(previous));

  EXPECT_GT(failures, 0);
  EXPECT_FALSE(last_msg.empty());
}

// ---------------------------------------------------------------------
// TMG_ASSERT / TMG_DCHECK plumbing.
// ---------------------------------------------------------------------

TEST(Assert, PassingConditionDoesNotInvokeHandler) {
  int failures = 0;
  FailureHandler previous =
      set_failure_handler([&](const char*, int, const char*,
                              const std::string&) { ++failures; });
  TMG_ASSERT(1 + 1 == 2, "arithmetic works");
  set_failure_handler(std::move(previous));
  EXPECT_EQ(failures, 0);
}

TEST(Assert, FailingConditionReportsFileLineAndMessage) {
  std::string seen_file;
  int seen_line = 0;
  std::string seen_cond;
  std::string seen_msg;
  FailureHandler previous = set_failure_handler(
      [&](const char* file, int line, const char* cond,
          const std::string& msg) {
        seen_file = file;
        seen_line = line;
        seen_cond = cond;
        seen_msg = msg;
      });
  TMG_ASSERT(2 < 1, "deliberately false");
  set_failure_handler(std::move(previous));

  EXPECT_NE(seen_file.find("check_test.cpp"), std::string::npos);
  EXPECT_GT(seen_line, 0);
  EXPECT_EQ(seen_cond, "2 < 1");
  EXPECT_EQ(seen_msg, "deliberately false");
}

TEST(Assert, DcheckEvaluatesOnlyInDebugBuilds) {
  int evaluations = 0;
  int failures = 0;
  FailureHandler previous =
      set_failure_handler([&](const char*, int, const char*,
                              const std::string&) { ++failures; });
  TMG_DCHECK(++evaluations > 0, "side effect probe");
  set_failure_handler(std::move(previous));
#ifdef NDEBUG
  EXPECT_EQ(evaluations, 0) << "NDEBUG must not evaluate the condition";
#else
  EXPECT_EQ(evaluations, 1);
#endif
  EXPECT_EQ(failures, 0);
}

}  // namespace
}  // namespace tmg::check
