// Tests for the trace-profile anomaly IDS (DESIGN.md §14): Train-mode
// featurization, deterministic training, and the Tables II/IV scoring
// acceptance — zero false alerts on clean runs, detection on the
// attack rows the hand-written defenses cover.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>

#include "ctrl/alert_bus.hpp"
#include "ctrl/profiles.hpp"
#include "ids/behavior_profile.hpp"
#include "ids/profile_anomaly.hpp"
#include "obs/observability.hpp"
#include "of/messages.hpp"
#include "sim/event_loop.hpp"
#include "scenario/experiments.hpp"
#include "scenario/trial_runner.hpp"
#include "topo/graph.hpp"

namespace tmg {
namespace {

using scenario::DefenseSuite;
using scenario::HijackConfig;
using scenario::LinkAttackConfig;
using scenario::LinkAttackKind;
using scenario::TrialRunner;

// Train a baseline from `train_trials` clean link-attack + hijack
// timelines under one controller profile — the bench_anomaly recipe at
// test scale.
ids::BehaviorProfile train_baseline(const ctrl::ControllerProfile& profile,
                                    int train_trials) {
  ids::ProfileTrainer trainer;
  for (int t = 0; t < train_trials; ++t) {
    LinkAttackConfig link;
    link.kind = LinkAttackKind::ClassicRelay;
    link.suite = DefenseSuite::None;
    link.seed = TrialRunner::trial_seed(7, static_cast<std::size_t>(t));
    link.attack_enabled = false;
    link.check_invariants = false;
    link.profile = profile;
    link.anomaly_trainer = &trainer;
    (void)scenario::run_link_attack(link);

    HijackConfig hijack;
    hijack.suite = DefenseSuite::None;
    hijack.seed = TrialRunner::trial_seed(8, static_cast<std::size_t>(t));
    hijack.attack_enabled = false;
    hijack.check_invariants = false;
    hijack.profile = profile;
    hijack.anomaly_trainer = &trainer;
    (void)scenario::run_hijack(hijack);
  }
  return trainer.finalize();
}

// ---------------- training ----------------

// A link removal is one event at each endpoint: the service hands
// LinkRemoved to the trainer for both sides of the link.
TEST(AnomalyTraining, LinkRemovedCreditedToBothEndpoints) {
  using ids::Symbol;
  sim::EventLoop loop;
  ids::ProfileTrainer trainer;
  ids::ProfileAnomalyService service{loop};
  service.set_trainer(&trainer);
  const of::Location a{0x1, 10};
  const of::Location b{0x2, 11};
  trainer.begin_trial();
  service.on_link_removed(topo::Link{a, b});

  const ids::BehaviorProfile profile = trainer.finalize();
  EXPECT_EQ(profile.events, 2u);
  ASSERT_EQ(profile.ports.size(), 2u);
  for (const of::Location loc : {a, b}) {
    const auto it = profile.ports.find(ids::port_key(loc));
    ASSERT_NE(it, profile.ports.end()) << loc.to_string();
    EXPECT_EQ(it->second.bigrams,
              (std::set<std::uint32_t>{
                  ids::bigram_key(Symbol::Start, Symbol::LinkRemoved)}))
        << loc.to_string();
    EXPECT_EQ(it->second.peak_rate_per_s, 1u) << loc.to_string();
  }
}

// Training is deterministic: the same trials in the same order yield
// an equal profile.
TEST(AnomalyProfile, TrainingIsDeterministic) {
  const auto a = train_baseline(ctrl::floodlight_profile(), 1);
  const auto b = train_baseline(ctrl::floodlight_profile(), 1);
  ASSERT_GT(a.events, 0u);
  ASSERT_FALSE(a.ports.empty());
  EXPECT_TRUE(a == b);
}

// ---------------- scoring: clean runs stay silent ----------------

// Zero false alerts on clean re-runs under every controller profile
// (the Table IV acceptance row for the learned detector).
TEST(AnomalyScoring, CleanRunsRaiseNoAlerts) {
  for (const auto& profile : ctrl::all_profiles()) {
    const ids::BehaviorProfile baseline = train_baseline(profile, 2);
    ASSERT_GT(baseline.events, 0u) << profile.name;

    LinkAttackConfig link;
    link.kind = LinkAttackKind::ClassicRelay;
    link.suite = DefenseSuite::None;
    link.seed = TrialRunner::trial_seed(42, 0);
    link.attack_enabled = false;
    link.check_invariants = false;
    link.profile = profile;
    link.anomaly_profile = &baseline;
    const auto clean_link = scenario::run_link_attack(link);
    EXPECT_EQ(clean_link.alerts_anomaly, 0u) << profile.name;
    EXPECT_GT(clean_link.anomaly.scored, 0u) << profile.name;

    HijackConfig hijack;
    hijack.suite = DefenseSuite::None;
    hijack.seed = TrialRunner::trial_seed(42, 0);
    hijack.attack_enabled = false;
    hijack.check_invariants = false;
    hijack.profile = profile;
    hijack.anomaly_profile = &baseline;
    const auto clean_hijack = scenario::run_hijack(hijack);
    EXPECT_EQ(clean_hijack.alerts_anomaly, 0u) << profile.name;
    EXPECT_GT(clean_hijack.anomaly.scored, 0u) << profile.name;
  }
}

// Unseen training seeds must not trip the detector either (the profile
// generalizes across seeds, not just replays).
TEST(AnomalyScoring, UnseenSeedStaysSilent) {
  const ids::BehaviorProfile baseline =
      train_baseline(ctrl::floodlight_profile(), 2);
  LinkAttackConfig link;
  link.kind = LinkAttackKind::ClassicRelay;
  link.suite = DefenseSuite::None;
  link.seed = 0xdecafbad;
  link.attack_enabled = false;
  link.check_invariants = false;
  link.anomaly_profile = &baseline;
  const auto out = scenario::run_link_attack(link);
  EXPECT_EQ(out.alerts_anomaly, 0u);
}

// ---------------- scoring: attacks deviate ----------------

// Port Amnesia (paper Sec. IV-C): the hand-written defenses' blind spot
// rows. The learned detector must flag the out-of-band variant.
TEST(AnomalyScoring, OobAmnesiaDetected) {
  const ids::BehaviorProfile baseline =
      train_baseline(ctrl::floodlight_profile(), 2);
  LinkAttackConfig link;
  link.kind = LinkAttackKind::OobAmnesia;
  link.suite = DefenseSuite::None;
  link.seed = TrialRunner::trial_seed(42, 0);
  link.check_invariants = false;
  link.anomaly_profile = &baseline;
  const auto out = scenario::run_link_attack(link);
  EXPECT_GT(out.alerts_anomaly, 0u);
  EXPECT_GT(out.anomaly.deviations(), 0u);
}

// Flow-rule relay (paper Sec. VI): invisible to TopoGuard — the relay
// bridges genuine LLDP, so the learned LLDP-source sets are the signal.
TEST(AnomalyScoring, FlowRuleRelayDetected) {
  const ids::BehaviorProfile baseline =
      train_baseline(ctrl::floodlight_profile(), 2);
  LinkAttackConfig link;
  link.kind = LinkAttackKind::FlowRuleRelay;
  link.suite = DefenseSuite::None;
  link.seed = TrialRunner::trial_seed(42, 0);
  link.check_invariants = false;
  link.anomaly_profile = &baseline;
  const auto out = scenario::run_link_attack(link);
  EXPECT_GT(out.alerts_anomaly, 0u);
  EXPECT_GT(out.anomaly.lldp_src_violation, 0u);
}

TEST(AnomalyScoring, HostHijackDeviates) {
  const ids::BehaviorProfile baseline =
      train_baseline(ctrl::floodlight_profile(), 2);
  HijackConfig hijack;
  hijack.suite = DefenseSuite::None;
  hijack.seed = TrialRunner::trial_seed(42, 0);
  hijack.check_invariants = false;
  hijack.anomaly_profile = &baseline;
  const auto out = scenario::run_hijack(hijack);
  EXPECT_GT(out.alerts_anomaly, 0u);
  EXPECT_GT(out.anomaly.deviations(), 0u);
}

// ---------------- alert dedup ----------------

// Many repeats of a deviation raise exactly one alert per (port, kind),
// carrying the first deviation's message, while every deviation is
// still counted and traced — with and without observability.
TEST(AnomalyScoring, RepeatDeviationsAlertOncePerPortAndKind) {
  using ids::Symbol;
  const of::Location trained{0x1, 1};
  const of::Location untrained{0x2, 1};
  ids::BehaviorProfile profile;
  ids::PortProfile& base = profile.ports[ids::port_key(trained)];
  base.bigrams = {ids::bigram_key(Symbol::Start, Symbol::PortUp),
                  ids::bigram_key(Symbol::PortUp, Symbol::PortUp)};
  base.trigrams = {
      ids::trigram_key(Symbol::Start, Symbol::Start, Symbol::PortUp),
      ids::trigram_key(Symbol::Start, Symbol::PortUp, Symbol::PortUp),
      ids::trigram_key(Symbol::PortUp, Symbol::PortUp, Symbol::PortUp)};
  base.peak_rate_per_s = 0;  // rate limit: 0 * 2 + 8 events per second

  const auto run = [&](obs::Observability* obs) {
    sim::EventLoop loop;
    ctrl::AlertBus alerts;
    ids::ProfileAnomalyService service{loop};
    service.set_profile(&profile);
    service.set_alert_bus(&alerts);
    service.set_observability(obs);
    const auto port_event = [&](of::Location loc, of::PortStatus::Reason r) {
      service.on_port_status(of::PortStatus{loc.dpid, loc.port, r});
    };
    // All in sim-second 0: breaches from the 9th event at `trained`.
    for (int i = 0; i < 50; ++i) {
      port_event(trained, of::PortStatus::Reason::Up);
      port_event(untrained, of::PortStatus::Reason::Up);
    }
    // Two different unseen transitions: one kind, two messages.
    port_event(trained, of::PortStatus::Reason::Down);
    port_event(trained, of::PortStatus::Reason::Up);
    return std::pair{alerts.alerts(), service.counters()};
  };

  const auto [alerts, counters] = run(nullptr);
  EXPECT_EQ(counters.unseen_port, 50u);
  EXPECT_EQ(counters.rate_breach, 44u);  // events 9..52 at `trained`
  EXPECT_EQ(counters.unseen_transition, 2u);
  EXPECT_EQ(counters.unseen_trigram, 0u);
  EXPECT_EQ(counters.alerts, 3u);
  ASSERT_EQ(alerts.size(), 3u);
  EXPECT_EQ(alerts[0].location, untrained);
  EXPECT_EQ(alerts[0].message, "event at port with no trained baseline");
  EXPECT_EQ(alerts[1].location, trained);
  EXPECT_EQ(alerts[1].message,
            "rate envelope breach: 9 events/s vs trained peak 0");
  EXPECT_EQ(alerts[2].location, trained);
  EXPECT_EQ(alerts[2].message, "unseen transition PortUp>PortDown");

  obs::Observability obs;
  const auto [observed_alerts, observed_counters] = run(&obs);
  ASSERT_EQ(observed_alerts.size(), alerts.size());
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    EXPECT_EQ(observed_alerts[i].message, alerts[i].message);
    EXPECT_EQ(observed_alerts[i].location, alerts[i].location);
  }
  EXPECT_EQ(observed_counters.deviations(), counters.deviations());
  // Every deviation, repeats included, is still a trace instant.
  const std::string trace = obs.trace().to_jsonl();
  std::size_t instants = 0;
  for (auto at = trace.find("ANOMALY_"); at != std::string::npos;
       at = trace.find("ANOMALY_", at + 1)) {
    ++instants;
  }
  EXPECT_EQ(instants, counters.deviations());
}

// ---------------- observability wiring ----------------

// With obs attached, scoring emits ids.anomaly.* metrics and ANOMALY_*
// instants; scoring results are identical with and without obs.
TEST(AnomalyScoring, ObservabilityMirrorsCounters) {
  const ids::BehaviorProfile baseline =
      train_baseline(ctrl::floodlight_profile(), 2);

  LinkAttackConfig link;
  link.kind = LinkAttackKind::OobAmnesia;
  link.suite = DefenseSuite::None;
  link.seed = TrialRunner::trial_seed(42, 0);
  link.check_invariants = false;
  link.anomaly_profile = &baseline;
  const auto unobserved = scenario::run_link_attack(link);

  obs::Observability obs;
  link.obs = &obs;
  const auto observed = scenario::run_link_attack(link);

  EXPECT_EQ(observed.alerts_anomaly, unobserved.alerts_anomaly);
  EXPECT_EQ(observed.anomaly.scored, unobserved.anomaly.scored);
  EXPECT_EQ(observed.anomaly.deviations(), unobserved.anomaly.deviations());

  const std::string metrics = obs.metrics_json(obs.final_time());
  EXPECT_NE(metrics.find("ids.anomaly.scored"), std::string::npos);
  EXPECT_NE(metrics.find("ids.anomaly.alerts"), std::string::npos);

  const std::string trace = obs.trace().to_jsonl();
  EXPECT_NE(trace.find("\"cat\":\"ids\""), std::string::npos);
  EXPECT_NE(trace.find("ANOMALY_"), std::string::npos);
}

}  // namespace
}  // namespace tmg
