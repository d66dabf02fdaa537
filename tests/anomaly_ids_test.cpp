// Tests for the trace-profile anomaly IDS (DESIGN.md §14): the
// featurization contract between the online listener and the offline
// trace trainer, profile serialization, and the Tables II/IV scoring
// acceptance — zero false alerts on clean runs, detection on the
// attack rows the hand-written defenses cover.
#include <gtest/gtest.h>

#include <memory>
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

// ---------------- featurization contract ----------------

// The load-bearing equivalence: one clean run feeding BOTH the
// in-process trainer and a TraceLog export must yield byte-identical
// profiles when the export is replayed offline. This pins the online
// featurization (pipeline hooks) to the offline one (trace "ctrl"
// instants + matched lldp/rtt spans) — the contract tools/train_profile
// relies on.
TEST(AnomalyFeaturization, TraceReplayMatchesLiveTraining) {
  ids::ProfileTrainer live;
  obs::Observability obs;

  LinkAttackConfig link;
  link.kind = LinkAttackKind::ClassicRelay;
  link.suite = DefenseSuite::None;
  link.seed = 42;
  link.attack_enabled = false;
  link.check_invariants = false;
  link.anomaly_trainer = &live;
  link.obs = &obs;
  (void)scenario::run_link_attack(link);

  ids::ProfileTrainer offline;
  std::string error;
  ASSERT_TRUE(offline.add_trace_jsonl(obs.trace().to_jsonl(), &error))
      << error;

  EXPECT_GT(live.events(), 0u);
  EXPECT_EQ(live.events(), offline.events());
  EXPECT_EQ(live.finalize().to_json(), offline.finalize().to_json());
}

// Same equivalence over the hijack timeline (port flaps, host events).
TEST(AnomalyFeaturization, HijackTraceReplayMatchesLiveTraining) {
  ids::ProfileTrainer live;
  obs::Observability obs;

  HijackConfig hijack;
  hijack.suite = DefenseSuite::None;
  hijack.seed = 42;
  hijack.attack_enabled = false;
  hijack.check_invariants = false;
  hijack.anomaly_trainer = &live;
  hijack.obs = &obs;
  (void)scenario::run_hijack(hijack);

  ids::ProfileTrainer offline;
  std::string error;
  ASSERT_TRUE(offline.add_trace_jsonl(obs.trace().to_jsonl(), &error))
      << error;

  EXPECT_GT(live.events(), 0u);
  EXPECT_EQ(live.events(), offline.events());
  EXPECT_EQ(live.finalize().to_json(), offline.finalize().to_json());
}

TEST(AnomalyFeaturization, MalformedTraceRejected) {
  ids::ProfileTrainer trainer;
  std::string error;
  EXPECT_FALSE(trainer.add_trace_jsonl("{not json\n", &error));
  EXPECT_FALSE(error.empty());
  // Hostile nesting fails the parse instead of overflowing the stack.
  error.clear();
  EXPECT_FALSE(
      trainer.add_trace_jsonl(std::string(100000, '[') + "\n", &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

// Controller-consumed Packet-Ins never reach the anomaly slot, so the
// offline featurizer must filter them too (behavior_profile.hpp).
TEST(AnomalyFeaturization, ControllerConsumedPacketInsFiltered) {
  // ARP who-has for the controller's identity IP: consumed at slot 0.
  EXPECT_FALSE(ids::featurize_ctrl_instant(
                   "PACKET_IN",
                   "ARP who-has 10.0.0.1(02:00:00:00:00:01) -> 10.255.255.254",
                   "0x1:2")
                   .has_value());
  // Probe replies addressed to the controller: consumed at slot 0.
  EXPECT_FALSE(
      ids::featurize_ctrl_instant(
          "PACKET_IN", "ICMP echo-rep id=7 seq=3 10.0.0.1 -> 10.255.255.254",
          "0x1:2")
          .has_value());
  // A normal host-bound ARP is featurized.
  const auto arp = ids::featurize_ctrl_instant(
      "PACKET_IN", "ARP who-has 10.0.0.1(02:00:00:00:00:01) -> 10.0.0.2",
      "0x1:2");
  ASSERT_TRUE(arp.has_value());
  EXPECT_EQ(arp->symbol, ids::Symbol::PktArp);
  ASSERT_EQ(arp->port_count, 1u);
  EXPECT_EQ(ids::port_key_to_string(arp->ports[0]), "0x1:2");
}

TEST(AnomalyFeaturization, LinkRemovedAttributedToBothEndpoints) {
  const auto fi = ids::featurize_ctrl_instant("LINK_REMOVED",
                                              "0x1:10<->0x2:11", "0x1:10");
  ASSERT_TRUE(fi.has_value());
  EXPECT_EQ(fi->symbol, ids::Symbol::LinkRemoved);
  ASSERT_EQ(fi->port_count, 2u);
  EXPECT_EQ(ids::port_key_to_string(fi->ports[0]), "0x1:10");
  EXPECT_EQ(ids::port_key_to_string(fi->ports[1]), "0x2:11");
}

// ---------------- profile serialization ----------------

TEST(AnomalyProfile, JsonRoundTripIsByteIdentical) {
  const ids::BehaviorProfile trained =
      train_baseline(ctrl::floodlight_profile(), 1);
  ASSERT_GT(trained.events, 0u);
  ASSERT_FALSE(trained.ports.empty());

  const std::string first = trained.to_json();
  std::string error;
  const auto reparsed = ids::BehaviorProfile::from_json(first, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->to_json(), first);
  EXPECT_EQ(reparsed->trials, trained.trials);
  EXPECT_EQ(reparsed->events, trained.events);
  EXPECT_EQ(reparsed->ports.size(), trained.ports.size());
  EXPECT_EQ(reparsed->durations.size(), trained.durations.size());
}

TEST(AnomalyProfile, FromJsonRejectsGarbage) {
  std::string error;
  EXPECT_FALSE(ids::BehaviorProfile::from_json("[]", &error).has_value());
  EXPECT_FALSE(
      ids::BehaviorProfile::from_json("{\"format\":\"nope\"}", &error)
          .has_value());
  error.clear();
  EXPECT_FALSE(
      ids::BehaviorProfile::from_json(std::string(100000, '['), &error)
          .has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

// Training is deterministic: the same trials in the same order yield a
// byte-identical serialization (the tools/train_profile guarantee).
TEST(AnomalyProfile, TrainingIsDeterministic) {
  const auto a = train_baseline(ctrl::floodlight_profile(), 1);
  const auto b = train_baseline(ctrl::floodlight_profile(), 1);
  EXPECT_EQ(a.to_json(), b.to_json());
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
  base.bigrams[ids::bigram_key(Symbol::Start, Symbol::PortUp)] = 1;
  base.bigrams[ids::bigram_key(Symbol::PortUp, Symbol::PortUp)] = 1;
  base.trigrams[ids::trigram_key(Symbol::Start, Symbol::Start,
                                 Symbol::PortUp)] = 1;
  base.trigrams[ids::trigram_key(Symbol::Start, Symbol::PortUp,
                                 Symbol::PortUp)] = 1;
  base.trigrams[ids::trigram_key(Symbol::PortUp, Symbol::PortUp,
                                 Symbol::PortUp)] = 1;
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
