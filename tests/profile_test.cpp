// Per-controller pipeline profiles: name resolution, the discipline's
// verdict gate, and the behavioral splits the profiles encode — ONOS's
// probe-before-move host migration, OpenDaylight's gate-less
// broadcast-observe dispatch — plus per-profile determinism of the
// experiment drivers (same outcome for any --jobs value and across
// repeated runs).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "../examples/example_util.hpp"
#include "ctrl/host_tracker.hpp"
#include "ctrl/profiles.hpp"
#include "scenario/experiments.hpp"
#include "scenario/testbed.hpp"
#include "scenario/trial_runner.hpp"

namespace tmg::ctrl {
namespace {

using namespace tmg::sim::literals;
using scenario::Testbed;
using scenario::TestbedOptions;

// ---------------- Name resolution ----------------

TEST(ProfileNames, ByNameResolvesEveryCliKey) {
  const auto fl = profile_by_name("floodlight");
  ASSERT_TRUE(fl.has_value());
  EXPECT_EQ(fl->name, "Floodlight");
  const auto pox = profile_by_name("pox");
  ASSERT_TRUE(pox.has_value());
  EXPECT_EQ(pox->name, "POX");
  const auto odl = profile_by_name("opendaylight");
  ASSERT_TRUE(odl.has_value());
  EXPECT_EQ(odl->name, "OpenDaylight");
  const auto onos = profile_by_name("onos");
  ASSERT_TRUE(onos.has_value());
  EXPECT_EQ(onos->name, "ONOS");
}

TEST(ProfileNames, ByNameIsStrict) {
  // Strict matching: no silent default, no fuzzy acceptance. The CLI
  // wrappers turn nullopt into exit 2.
  EXPECT_FALSE(profile_by_name("").has_value());
  EXPECT_FALSE(profile_by_name("Floodlight").has_value());  // case-exact
  EXPECT_FALSE(profile_by_name("odl").has_value());
  EXPECT_FALSE(profile_by_name("flodlight").has_value());
  EXPECT_FALSE(profile_by_name("floodlight ").has_value());
}

TEST(ProfileNames, CliNamesMatchAllProfilesOrder) {
  const auto names = profile_cli_names();
  const auto profiles = all_profiles();
  ASSERT_EQ(names.size(), profiles.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto p = profile_by_name(names[i]);
    ASSERT_TRUE(p.has_value()) << names[i];
    EXPECT_EQ(p->name, profiles[i].name) << names[i];
  }
}

TEST(ProfileNames, ExampleParseProfileValue) {
  // The examples' --profile flag resolves the CLI name; an unknown or
  // empty name is an error listing the valid names, which parse_cli
  // turns into exit 2 (the bench harness shares the flag).
  const char* argv[] = {"example", "--profile=onos"};
  const auto args = examples::parse_example_args(
      2, const_cast<char**>(argv), {.profile = true});
  ASSERT_TRUE(args.profile.has_value());
  EXPECT_EQ(args.profile->name, "ONOS");
  std::optional<ctrl::ControllerProfile> out;
  const scenario::CliFlag flag = scenario::cli_profile(out);
  EXPECT_EQ(flag.apply("neutron"),
            "unknown --profile 'neutron' (valid: floodlight pox "
            "opendaylight onos)");
  EXPECT_FALSE(out.has_value());
  EXPECT_FALSE(flag.apply("").empty());
}

// ---------------- Dispatch discipline ----------------

TEST(ProfileLayout, OpendaylightCompilesTheGateOut) {
  EXPECT_EQ(opendaylight_profile().discipline,
            DispatchDiscipline::BroadcastObserve);
  // Everyone else keeps the ordered-stop chain with the gate present.
  for (const auto& p :
       {floodlight_profile(), pox_profile(), onos_profile()}) {
    EXPECT_EQ(p.discipline, DispatchDiscipline::OrderedStop) << p.name;
  }
}

TEST(ProfileLayout, ControllerChainFollowsTheProfile) {
  for (const auto& key : profile_cli_names()) {
    TestbedOptions opts;
    opts.controller.profile = *profile_by_name(key);
    Testbed tb{opts};
    tb.add_switch(0x1);
    bool saw_gate = false;
    for (const auto& s : tb.controller().pipeline().stats()) {
      if (s.name == "verdict-gate") saw_gate = true;
    }
    EXPECT_EQ(saw_gate, key != "opendaylight") << key;
  }
}

// ---------------- Host-migration policy ----------------

struct MigrationNet {
  Testbed tb;
  attack::Host* victim;
  attack::Host* spoofer;

  explicit MigrationNet(TestbedOptions opts = {}) : tb{std::move(opts)} {
    tb.add_switch(0x1);
    tb.add_switch(0x2);
    tb.connect_switches(0x1, 10, 0x2, 10);
    attack::HostConfig c1;
    c1.mac = net::MacAddress::host(1);
    c1.ip = net::Ipv4Address::host(1);
    victim = &tb.add_host(0x1, 1, c1);
    attack::HostConfig c2;
    c2.mac = net::MacAddress::host(2);
    c2.ip = net::Ipv4Address::host(2);
    spoofer = &tb.add_host(0x2, 1, c2);
  }

  /// Claim the victim's identity from the spoofer's port while the
  /// victim is still plugged in — the naive hijack variant ONOS's
  /// probe-before-move is built to reject.
  void spoof() {
    spoofer->send(net::make_raw(victim->mac(), victim->ip(), spoofer->mac(),
                                spoofer->ip(), "spoof", 64));
    // Covers the ONOS 300 ms probe round-trip with margin.
    tb.run_for(1_s);
  }

  /// Learn the victim at (0x1, 1), then spoof.
  void learn_then_spoof() {
    tb.start(1_s);
    victim->send_arp_request(spoofer->ip());
    tb.run_for(200_ms);
    spoof();
  }
};

TEST(MigrationPolicy, FloodlightRebindsOnFirstSighting) {
  MigrationNet net;  // default profile: MigrationPolicy::Immediate
  net.learn_then_spoof();
  const auto rec = net.tb.controller().host_tracker().find(net.victim->mac());
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->loc, (of::Location{0x2, 1}));  // hijacked
  EXPECT_EQ(net.tb.controller().host_tracker().migrations(), 1u);
  EXPECT_EQ(net.tb.controller().host_tracker().moves_rejected(), 0u);
}

TEST(MigrationPolicy, OnosProbeBeforeMoveRejectsLiveVictimHijack) {
  TestbedOptions opts;
  opts.controller.profile = onos_profile();
  MigrationNet net{opts};
  net.learn_then_spoof();
  // The probe to (0x1, 1) was answered by the still-alive victim, so
  // the move was rejected: the binding never changed.
  const auto rec = net.tb.controller().host_tracker().find(net.victim->mac());
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->loc, (of::Location{0x1, 1}));
  EXPECT_EQ(net.tb.controller().host_tracker().migrations(), 0u);
  EXPECT_GE(net.tb.controller().host_tracker().moves_rejected(), 1u);
  EXPECT_EQ(net.tb.controller().host_tracker().pending_moves(), 0u);
}

TEST(MigrationPolicy, OnosCommitsLegitimateMigrationAfterProbeTimeout) {
  TestbedOptions opts;
  opts.controller.profile = onos_profile();
  MigrationNet net{opts};
  of::DataLink& target = net.tb.add_access_link(0x2, 4);
  net.tb.start(1_s);
  net.victim->send_arp_request(net.spoofer->ip());
  net.tb.run_for(200_ms);
  // A real migration: the victim unplugs, so the old attachment point
  // stays silent and the probe times out (300 ms) before committing.
  scenario::migrate_host(net.tb, *net.victim, target, 500_ms);
  net.tb.run_for(600_ms);
  net.victim->send_arp_request(net.spoofer->ip());
  net.tb.run_for(1_s);
  const auto rec = net.tb.controller().host_tracker().find(net.victim->mac());
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->loc, (of::Location{0x2, 4}));
  EXPECT_EQ(net.tb.controller().host_tracker().migrations(), 1u);
  EXPECT_EQ(net.tb.controller().host_tracker().pending_moves(), 0u);
}

// ---------------- Dispatch discipline ----------------

/// Defense that, once armed, blocks every host event (the strongest
/// veto a module can cast). Unarmed while the testbed learns the
/// benign bindings.
class HostVeto final : public DefenseModule {
 public:
  [[nodiscard]] std::string name() const override { return "host-veto"; }
  Verdict on_host_event(const HostEvent&) override {
    return armed ? Verdict::Block : Verdict::Allow;
  }
  bool armed = false;
};

TEST(DispatchDiscipline, OrderedStopHonorsTheBlockVerdict) {
  MigrationNet net;
  auto veto = std::make_unique<HostVeto>();
  HostVeto* veto_ptr = veto.get();
  net.tb.controller().add_defense(std::move(veto));
  net.tb.start(1_s);
  net.victim->send_arp_request(net.spoofer->ip());
  net.tb.run_for(200_ms);
  veto_ptr->armed = true;
  net.spoof();
  // Floodlight's ordered chain lets the Block verdict veto the rebind.
  const auto rec = net.tb.controller().host_tracker().find(net.victim->mac());
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->loc, (of::Location{0x1, 1}));
  EXPECT_GE(net.tb.controller().host_tracker().blocked_events(), 1u);
}

TEST(DispatchDiscipline, BroadcastObserveTreatsVerdictsAsAdvisory) {
  TestbedOptions opts;
  opts.controller.profile = opendaylight_profile();
  MigrationNet net{opts};
  auto veto = std::make_unique<HostVeto>();
  HostVeto* veto_ptr = veto.get();
  net.tb.controller().add_defense(std::move(veto));
  net.tb.start(1_s);
  net.victim->send_arp_request(net.spoofer->ip());
  net.tb.run_for(200_ms);
  veto_ptr->armed = true;
  net.spoof();
  // OpenDaylight's notification bus never suppresses the commit: the
  // module observed (and could alert on) the event, but the rebind
  // happened anyway.
  const auto rec = net.tb.controller().host_tracker().find(net.victim->mac());
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->loc, (of::Location{0x2, 1}));
  EXPECT_EQ(net.tb.controller().host_tracker().migrations(), 1u);
}

// ---------------- Experiment drivers under profiles ----------------

TEST(ProfileExperiments, OnosShiftsHijackOutcomeVsFloodlight) {
  scenario::HijackConfig fl;
  fl.suite = scenario::DefenseSuite::None;
  const auto fl_out = scenario::run_hijack(fl);

  scenario::HijackConfig onos = fl;
  onos.profile = onos_profile();
  const auto onos_out = scenario::run_hijack(onos);

  // The hijack targets a *down* victim, so ONOS's probe goes
  // unanswered and the rebind still lands — but only after the 300 ms
  // probe window, on a 3 s discovery cadence; the run must not be
  // byte-equal to Floodlight's.
  EXPECT_TRUE(fl_out.hijack_succeeded);
  const auto digest = [](const scenario::HijackOutcome& o) {
    return std::make_tuple(o.hijack_succeeded, o.traffic_redirected,
                           o.down_to_final_probe_start_ms,
                           o.down_to_declared_down_ms, o.down_to_iface_up_ms,
                           o.down_to_confirmed_ms, o.ident_change_ms,
                           o.events_executed);
  };
  EXPECT_NE(digest(fl_out), digest(onos_out));
}

TEST(ProfileExperiments, EveryProfileIsTwoRunDeterministic) {
  for (const auto& key : profile_cli_names()) {
    scenario::LinkAttackConfig cfg;
    cfg.kind = scenario::LinkAttackKind::OobAmnesia;
    cfg.suite = scenario::DefenseSuite::TopoGuardPlus;
    cfg.profile = *profile_by_name(key);
    const auto a = scenario::run_link_attack(cfg);
    const auto b = scenario::run_link_attack(cfg);
    EXPECT_EQ(a.link_registered, b.link_registered) << key;
    EXPECT_EQ(a.mitm_traffic, b.mitm_traffic) << key;
    EXPECT_EQ(a.alerts_total, b.alerts_total) << key;
    EXPECT_EQ(a.flaps, b.flaps) << key;
    EXPECT_EQ(a.events_executed, b.events_executed) << key;
    EXPECT_EQ(a.invariant_violations, 0u) << key;
    EXPECT_EQ(b.invariant_violations, 0u) << key;
  }
}

TEST(ProfileExperiments, EveryProfileIsJobsInvariant) {
  // The acceptance bar for the profile layer: all profiles produce
  // byte-identical trial vectors at --jobs 1 vs 8 (chunked scheduling,
  // ordered merge — DESIGN.md §7).
  for (const auto& key : profile_cli_names()) {
    const auto run = [&](std::size_t jobs) {
      scenario::TrialRunnerOptions ro;
      ro.jobs = jobs;
      scenario::TrialRunner runner{ro};
      return runner.map(6, [&](std::size_t i) {
        scenario::HijackConfig cfg;
        cfg.suite = scenario::DefenseSuite::TopoGuard;
        cfg.profile = *profile_by_name(key);
        cfg.seed = scenario::TrialRunner::trial_seed(42, i);
        const auto out = scenario::run_hijack(cfg);
        return std::make_tuple(out.hijack_succeeded, out.traffic_redirected,
                               out.down_to_confirmed_ms, out.ident_change_ms,
                               out.alerts_after_rejoin, out.events_executed,
                               out.invariant_violations);
      });
    };
    EXPECT_EQ(run(1), run(8)) << key;
  }
}

TEST(ProfileExperiments, InvariantCheckerCleanUnderEveryProfile) {
  for (const auto& key : profile_cli_names()) {
    TestbedOptions opts;
    opts.controller.profile = *profile_by_name(key);
    opts.check_invariants = true;
    MigrationNet net{opts};
    net.learn_then_spoof();
    check::InvariantChecker* checker = net.tb.invariant_checker();
    ASSERT_NE(checker, nullptr) << key;
    checker->final_check();
    EXPECT_GT(checker->checks_run(), 0u) << key;
    EXPECT_EQ(checker->violation_count(), 0u) << key;
  }
}

}  // namespace
}  // namespace tmg::ctrl
