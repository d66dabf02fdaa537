// Learned anomaly IDS vs the attack matrix (DESIGN.md §14).
//
// The hand-written defenses (TopoGuard, SPHINX, CMM, LLI) each encode
// one invariant and each has a documented bypass. This bench scores the
// learned complement: per controller profile it trains a
// BehaviorProfile on clean trials (no attack, no defenses), then
// replays every attack family — and fresh clean runs — against that
// baseline with ids::ProfileAnomalyService as the only detector.
//
// Detection is counted per trial from the IDS's own alert stream
// (LinkAttackOutcome/HijackOutcome::alerts_anomaly), next to the full
// deviation breakdown. The headline contract, gated by --check and the
// CI anomaly-smoke leg: zero false alerts on clean runs, detection on
// the rows that evade every hand-written defense (out-of-band Port
// Amnesia and the host-free flow-rule relay).
//
// Training is serial by design (a ProfileTrainer is fed in trial
// order); evaluation fans out through TrialRunner::reduce with
// order-independent counter merges, so stdout (minus the [bench]
// footer) and the "anomaly" JSON payload are byte-identical for every
// --jobs value; CI diffs jobs 1 vs 8.
//
//   --trials N   eval trials per row (default 6; --quick 2)
//   --jobs N     worker threads (0 = hardware)
//   --json PATH  bench record + "anomaly" per-profile row tables
//   --check      exit 1 on clean false alerts or a missed detection on
//                the must-catch rows (CI smoke gate)
//   --obs        observed re-run of the flow-rule relay under the first
//                trained baseline ("obs" key); --obs-out / --trace-out
//                export its metrics / trace — the trace carries the
//                ANOMALY_* instants tools/check_trace_schema.py pins
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_harness.hpp"
#include "bench_util.hpp"
#include "ctrl/profiles.hpp"
#include "ids/behavior_profile.hpp"
#include "obs/observability.hpp"
#include "ids/profile_anomaly.hpp"
#include "scenario/experiments.hpp"
#include "scenario/trial_arena.hpp"
#include "scenario/trial_runner.hpp"

using namespace tmg;
using namespace tmg::bench;
using scenario::DefenseSuite;
using scenario::LinkAttackKind;

namespace {

// One eval row: which driver, whether the attack runs, and whether the
// --check gate demands zero alerts (clean) or a detection in every
// trial (the families that bypass all hand-written defenses).
struct Row {
  const char* label;
  bool link_driver;  // run_link_attack vs run_hijack
  bool attack_enabled;
  LinkAttackKind kind;  // link rows only
  bool must_be_silent;
  bool must_detect;
};

const Row kRows[] = {
    {"clean link", true, false, LinkAttackKind::ClassicRelay, true, false},
    {"clean hijack", false, false, LinkAttackKind::ClassicRelay, true, false},
    {"hijack", false, true, LinkAttackKind::ClassicRelay, false, false},
    {"classic relay", true, true, LinkAttackKind::ClassicRelay, false, false},
    {"oob amnesia", true, true, LinkAttackKind::OobAmnesia, false, true},
    {"in-band amnesia", true, true, LinkAttackKind::InBandAmnesia, false,
     false},
    {"flow-rule relay", true, true, LinkAttackKind::FlowRuleRelay, false,
     true},
};
constexpr std::size_t kNRows = sizeof(kRows) / sizeof(kRows[0]);

// Per-row accumulator: plain sums, so the reduce merge is
// order-independent and the row is identical at any --jobs.
struct RowAcc {
  std::uint64_t trials = 0;
  std::uint64_t detected = 0;  // trials with >= 1 anomaly alert
  std::uint64_t alerts = 0;
  std::uint64_t events = 0;
  ids::AnomalyCounters dev;

  void fold(std::size_t alerts_anomaly, const ids::AnomalyCounters& c,
            std::uint64_t trial_events) {
    ++trials;
    if (alerts_anomaly > 0) ++detected;
    alerts += alerts_anomaly;
    events += trial_events;
    dev.scored += c.scored;
    dev.unseen_port += c.unseen_port;
    dev.unseen_transition += c.unseen_transition;
    dev.unseen_trigram += c.unseen_trigram;
    dev.lldp_src_violation += c.lldp_src_violation;
    dev.rate_breach += c.rate_breach;
    dev.duration_outlier += c.duration_outlier;
    dev.alerts += c.alerts;
    dev.vetoes += c.vetoes;
  }
  void merge(const RowAcc& o) {
    trials += o.trials;
    detected += o.detected;
    alerts += o.alerts;
    events += o.events;
    dev.scored += o.dev.scored;
    dev.unseen_port += o.dev.unseen_port;
    dev.unseen_transition += o.dev.unseen_transition;
    dev.unseen_trigram += o.dev.unseen_trigram;
    dev.lldp_src_violation += o.dev.lldp_src_violation;
    dev.rate_breach += o.dev.rate_breach;
    dev.duration_outlier += o.dev.duration_outlier;
    dev.alerts += o.dev.alerts;
    dev.vetoes += o.dev.vetoes;
  }
};

std::string row_json(const Row& row, const RowAcc& a) {
  std::string s = "{\"row\": \"" + std::string(row.label) + "\"";
  s += ", \"trials\": " + std::to_string(a.trials);
  s += ", \"detected\": " + std::to_string(a.detected);
  s += ", \"alerts\": " + std::to_string(a.alerts);
  s += ", \"scored\": " + std::to_string(a.dev.scored);
  s += ", \"deviations\": {";
  s += "\"unseen_port\": " + std::to_string(a.dev.unseen_port);
  s += ", \"unseen_transition\": " + std::to_string(a.dev.unseen_transition);
  s += ", \"unseen_trigram\": " + std::to_string(a.dev.unseen_trigram);
  s += ", \"lldp_src\": " + std::to_string(a.dev.lldp_src_violation);
  s += ", \"rate_breach\": " + std::to_string(a.dev.rate_breach);
  s += ", \"duration_outlier\": " + std::to_string(a.dev.duration_outlier);
  s += "}}";
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  const HarnessOptions opts =
      parse_harness_args(argc, argv, {scenario::cli_switch("--check", check)});
  banner("Anomaly IDS", "learned baselines vs the attack matrix");

  const std::size_t per_row = opts.trial_count(6, 2);
  const std::size_t train_trials = opts.quick ? 2 : 4;
  const std::vector<ctrl::ControllerProfile> profiles = ctrl::all_profiles();

  scenario::TrialRunner runner{opts.runner_options()};
  std::vector<std::unique_ptr<scenario::TrialArena>> arenas;
  arenas.reserve(runner.jobs());
  for (std::size_t w = 0; w < runner.jobs(); ++w) {
    arenas.push_back(std::make_unique<scenario::TrialArena>());
  }

  std::uint64_t events = 0;
  std::string profiles_json = "[";
  std::vector<std::string> failures;
  ids::BehaviorProfile first_baseline;  // kept for the --obs re-run

  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const ctrl::ControllerProfile& profile = profiles[p];

    // --- Train: serial clean trials, both scenario shapes. The driver
    // installs the IDS in Train mode and brackets the trial for us.
    ids::ProfileTrainer trainer;
    for (std::size_t t = 0; t < train_trials; ++t) {
      scenario::LinkAttackConfig lcfg;
      lcfg.kind = LinkAttackKind::ClassicRelay;  // unused: attack off
      lcfg.suite = DefenseSuite::None;
      lcfg.seed = scenario::TrialRunner::trial_seed(7, t);
      lcfg.check_invariants = false;
      lcfg.profile = profile;
      lcfg.attack_enabled = false;
      lcfg.anomaly_trainer = &trainer;
      (void)scenario::run_link_attack(lcfg);

      scenario::HijackConfig hcfg;
      hcfg.suite = DefenseSuite::None;
      hcfg.seed = scenario::TrialRunner::trial_seed(8, t);
      hcfg.check_invariants = false;
      hcfg.profile = profile;
      hcfg.attack_enabled = false;
      hcfg.anomaly_trainer = &trainer;
      (void)scenario::run_hijack(hcfg);
    }
    const ids::BehaviorProfile baseline = trainer.finalize();
    if (p == 0) first_baseline = baseline;

    // --- Eval: every row against the shared read-only baseline.
    std::vector<RowAcc> rows;
    rows.reserve(kNRows);
    for (std::size_t r = 0; r < kNRows; ++r) {
      const Row& row = kRows[r];
      RowAcc acc = runner.reduce(
          per_row, [] { return RowAcc{}; },
          [&](RowAcc& a, std::size_t i) {
            if (row.link_driver) {
              scenario::LinkAttackConfig cfg;
              cfg.kind = row.kind;
              cfg.suite = DefenseSuite::None;
              cfg.seed = scenario::TrialRunner::trial_seed(42, i);
              cfg.check_invariants = false;
              cfg.arena = arenas[scenario::TrialRunner::worker_slot()].get();
              cfg.profile = profile;
              cfg.attack_enabled = row.attack_enabled;
              cfg.anomaly_profile = &baseline;
              const scenario::LinkAttackOutcome out =
                  scenario::run_link_attack(cfg);
              a.fold(out.alerts_anomaly, out.anomaly, out.events_executed);
            } else {
              scenario::HijackConfig cfg;
              cfg.suite = DefenseSuite::None;
              cfg.seed = scenario::TrialRunner::trial_seed(42, i);
              cfg.check_invariants = false;
              cfg.arena = arenas[scenario::TrialRunner::worker_slot()].get();
              cfg.profile = profile;
              cfg.attack_enabled = row.attack_enabled;
              cfg.anomaly_profile = &baseline;
              const scenario::HijackOutcome out = scenario::run_hijack(cfg);
              a.fold(out.alerts_anomaly, out.anomaly, out.events_executed);
            }
          },
          [](RowAcc& total, RowAcc&& part) { total.merge(part); });
      events += acc.events;
      rows.push_back(acc);
    }

    section(profile.name.c_str());
    Table table({"Scenario", "detected", "alerts", "scored", "port", "trans",
                 "3gram", "lldp-src", "rate", "dur"});
    for (std::size_t r = 0; r < kNRows; ++r) {
      const RowAcc& a = rows[r];
      table.add_row({kRows[r].label,
                     fmt_u(a.detected) + "/" + fmt_u(a.trials),
                     fmt_u(a.alerts), fmt_u(a.dev.scored),
                     fmt_u(a.dev.unseen_port),
                     fmt_u(a.dev.unseen_transition),
                     fmt_u(a.dev.unseen_trigram),
                     fmt_u(a.dev.lldp_src_violation),
                     fmt_u(a.dev.rate_breach),
                     fmt_u(a.dev.duration_outlier)});

      if (kRows[r].must_be_silent && a.alerts != 0) {
        failures.push_back(std::string(profile.name) + "/" + kRows[r].label +
                           ": " + std::to_string(a.alerts) +
                           " false alerts on a clean run");
      }
      if (kRows[r].must_detect && a.detected != a.trials) {
        failures.push_back(std::string(profile.name) + "/" + kRows[r].label +
                           ": detected only " + std::to_string(a.detected) +
                           "/" + std::to_string(a.trials) + " trials");
      }
    }
    table.print();

    if (p != 0) profiles_json += ", ";
    profiles_json += "{\"controller\": \"" + profile.name + "\"";
    profiles_json += ", \"train_trials\": " + std::to_string(baseline.trials);
    profiles_json += ", \"train_events\": " + std::to_string(baseline.events);
    profiles_json +=
        ", \"ports_profiled\": " + std::to_string(baseline.ports.size());
    profiles_json += ", \"rows\": [";
    for (std::size_t r = 0; r < kNRows; ++r) {
      if (r != 0) profiles_json += ", ";
      profiles_json += row_json(kRows[r], rows[r]);
    }
    profiles_json += "]}";
  }
  profiles_json += "]";

  std::printf(
      "\nPer controller profile: %zu clean trials train a BehaviorProfile\n"
      "(serial, both scenario shapes), then %zu trials per row score\n"
      "against it with the anomaly IDS as the only detector. Counter\n"
      "merges are order-independent: byte-identical at any --jobs.\n",
      train_trials * 2, per_row);

  if (!failures.empty()) {
    std::printf("\n[bench] anomaly contract violations:\n");
    for (const std::string& f : failures) {
      std::printf("[bench]   %s\n", f.c_str());
    }
  }

  BenchResult result;
  result.bench = "anomaly";
  result.trials = (train_trials * 2 + per_row * kNRows) * profiles.size();
  result.base_seed = 42;
  result.jobs = runner.jobs();
  result.events = events;
  result.extra_key = "anomaly";
  result.extra_json =
      "{\"trials_per_row\": " + std::to_string(per_row) +
      ", \"train_trials\": " + std::to_string(train_trials * 2) +
      ", \"profiles\": " + profiles_json + "}";
  if (opts.obs) {
    // Observed re-run of the headline detection (flow-rule relay vs the
    // first controller's trained baseline), kept out of the workload
    // above. The exported trace carries the ANOMALY_* instants and
    // the metrics snapshot the ids.anomaly.* counters.
    obs::Observability obs;
    scenario::LinkAttackConfig cfg;
    cfg.kind = LinkAttackKind::FlowRuleRelay;
    cfg.suite = DefenseSuite::None;
    cfg.seed = scenario::TrialRunner::trial_seed(42, 0);
    cfg.check_invariants = false;
    cfg.profile = profiles.front();
    cfg.anomaly_profile = &first_baseline;
    cfg.obs = &obs;
    (void)scenario::run_link_attack(cfg);
    result.obs_metrics_json = obs.metrics_json(obs.final_time());
    if (!write_obs_artifacts(opts, obs)) return 1;
  }
  if (!report_bench(opts, result)) return 1;
  return check && !failures.empty() ? 1 : 0;
}
