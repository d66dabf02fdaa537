// Experiment drivers shared by the benchmarks, integration tests, and
// examples. Each driver builds a canned testbed, runs one experiment
// from the paper's evaluation, and returns a plain result struct.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "attack/oob_channel.hpp"
#include "attack/port_probing.hpp"
#include "attack/probes.hpp"
#include "ctrl/message_pipeline.hpp"
#include "ctrl/profiles.hpp"
#include "defense/secure_binding.hpp"
#include "defense/topoguard_plus.hpp"
#include "ids/profile_anomaly.hpp"
#include "scenario/fig1_testbed.hpp"
#include "scenario/fig2_testbed.hpp"
#include "scenario/fig9_testbed.hpp"
#include "scenario/trial_arena.hpp"
#include "stats/descriptive.hpp"

namespace tmg::scenario {

// ---------------------------------------------------------------------
// Defense suites
// ---------------------------------------------------------------------

enum class DefenseSuite {
  None,
  TopoGuard,
  Sphinx,
  TopoGuardAndSphinx,
  TopoGuardPlus,
  /// TopoGuard + cryptographic identifier binding (paper Sec. VI-A).
  SecureBinding,
  /// Every detection defense at once — TopoGuard, SPHINX, and the
  /// TOPOGUARD+ extensions (CMM + LLI) — stacked as ordered pipeline
  /// listeners. Verdicts accumulate: each module sees every event and
  /// a single Block wins (paper Sec. IV-B composition semantics).
  Stacked,
};
const char* to_string(DefenseSuite s);

struct DefenseHandles {
  defense::TopoGuard* topoguard = nullptr;
  defense::Sphinx* sphinx = nullptr;
  defense::Cmm* cmm = nullptr;
  defense::Lli* lli = nullptr;
  defense::SecureBinding* secure_binding = nullptr;
};

/// Controller options required by a suite (LLDP auth / timestamps),
/// applied to `base`.
TestbedOptions suite_options(DefenseSuite suite, std::uint64_t seed,
                             TestbedOptions base = {});

/// Install the suite's modules on a controller (before Testbed::start).
/// `enrollment` provides the credential registry for SecureBinding
/// (ignored by the other suites).
DefenseHandles install_suite(
    ctrl::Controller& ctrl, DefenseSuite suite,
    const defense::SecureBindingConfig* enrollment = nullptr);

// ---------------------------------------------------------------------
// Link fabrication / port amnesia (paper Sec. V-A, Figs. 10-13)
// ---------------------------------------------------------------------

enum class LinkAttackKind {
  ClassicRelay,     // plain LLDP relay, no amnesia (pre-paper baseline)
  OobAmnesia,       // out-of-band, prepositioned flap (CMM-evasive)
  OobAmnesiaNaive,  // out-of-band, flap during propagation (Fig. 1 flow)
  InBandAmnesia,    // covert in-band relay with context switching
  FlowRuleRelay,    // LLDP-splicing flow rules on a transit switch,
                    // no hosts involved (attack::FlowRuleRelay)
};
const char* to_string(LinkAttackKind k);

struct LinkAttackOutcome {
  bool link_registered = false;      // fabricated link entered topology
  bool link_present_at_end = false;  // still poisoned at the end
  bool mitm_traffic = false;         // h1<->h2 flow crossed the attackers
  std::uint64_t lldp_relayed = 0;
  std::uint64_t transit_bridged = 0;
  std::uint64_t flaps = 0;
  std::size_t alerts_before_attack = 0;  // false positives during benign run
  std::size_t alerts_total = 0;
  std::size_t alerts_topoguard = 0;
  std::size_t alerts_sphinx = 0;
  std::size_t alerts_cmm = 0;
  std::size_t alerts_lli = 0;
  std::size_t alerts_anomaly = 0;  // ProfileAnomalyService raises
  /// Anomaly IDS deviation totals (zero-initialized when no IDS ran).
  ids::AnomalyCounters anomaly;
  /// Runtime invariant checker (src/check): battery runs and violations
  /// over the whole experiment. Violations indicate a simulator bug.
  std::uint64_t invariant_sweeps = 0;
  std::uint64_t invariant_violations = 0;
  /// Simulator events executed by this trial's loop (bench `events`).
  std::uint64_t events_executed = 0;
  /// Per-listener dispatch counters (filled when the config asks).
  std::vector<ctrl::MessagePipeline::ListenerStats> pipeline_stats;
  [[nodiscard]] bool detected() const {
    return alerts_total > alerts_before_attack;
  }
};

struct LinkAttackConfig {
  LinkAttackKind kind = LinkAttackKind::OobAmnesia;
  DefenseSuite suite = DefenseSuite::TopoGuard;
  std::uint64_t seed = 42;
  /// Benign run before the attack starts (paper: 1 minute).
  sim::Duration benign_window = sim::Duration::seconds(60);
  /// Attack phase duration (covers several LLDP rounds).
  sim::Duration attack_window = sim::Duration::seconds(60);
  /// Drop MITM transit instead of bridging it (SPHINX-visible DoS).
  bool blackhole = false;
  /// Capture per-listener pipeline counters into the outcome.
  bool collect_pipeline_stats = false;
  /// Observability layer to attach (borrowed; nullptr runs unobserved).
  /// Wires the testbed (pipeline spans, loop probe) and the attack's
  /// flap/relay spans, and emits "scenario" phase instants.
  obs::Observability* obs = nullptr;
  /// Attach the runtime invariant checker. Tests keep the default;
  /// benches pass false so the measured hot path excludes the (read-
  /// only, result-neutral) periodic audit battery.
  bool check_invariants = true;
  /// Per-worker arena to run in (borrowed; nullptr builds a private
  /// event loop). Reusing an arena is observationally neutral — see
  /// trial_arena.hpp.
  TrialArena* arena = nullptr;
  /// Controller pipeline profile (see HijackConfig::profile). Unset
  /// keeps the testbed default (Floodlight).
  std::optional<ctrl::ControllerProfile> profile;
  /// Run the full scenario timeline WITHOUT launching the attack
  /// (clean-baseline runs: anomaly training and false-alert scoring).
  bool attack_enabled = true;
  /// Detect mode: install a ProfileAnomalyService scoring against this
  /// trained baseline (borrowed; shared read-only across trials).
  const ids::BehaviorProfile* anomaly_profile = nullptr;
  /// Train mode: install the IDS forwarding its featurization into this
  /// trainer (borrowed; overrides anomaly_profile). Serial runs only.
  ids::ProfileTrainer* anomaly_trainer = nullptr;
};

LinkAttackOutcome run_link_attack(const LinkAttackConfig& config);

// ---------------------------------------------------------------------
// Port probing / host-location hijack (paper Sec. V-B, Figs. 3-8)
// ---------------------------------------------------------------------

struct HijackConfig {
  DefenseSuite suite = DefenseSuite::TopoGuard;
  std::uint64_t seed = 42;
  attack::ProbeType probe_type = attack::ProbeType::ArpPing;
  sim::Duration probe_period = sim::Duration::millis(50);
  sim::Duration probe_timeout = sim::Duration::millis(35);
  int confirm_failures = 1;
  bool nmap_overhead = false;
  /// Steady probing (MAC acquisition) before the victim's move.
  sim::Duration settle_window = sim::Duration::seconds(2);
  /// Victim downtime window (VM live migration: seconds).
  sim::Duration victim_downtime = sim::Duration::seconds(3);
  bool victim_rejoins = true;
  /// Capture per-listener pipeline counters into the outcome.
  bool collect_pipeline_stats = false;
  /// Observability layer to attach (borrowed; nullptr runs unobserved).
  /// Wires the testbed and the attack's probe/race span tree, and emits
  /// the "scenario/victim.down" instant the race windows are measured
  /// against (tools/render_timeline.py reconstructs Figs. 5-8 from it).
  obs::Observability* obs = nullptr;
  /// Attach the runtime invariant checker (see LinkAttackConfig).
  bool check_invariants = true;
  /// Per-worker arena to run in (see LinkAttackConfig).
  TrialArena* arena = nullptr;
  /// Controller pipeline profile: Table III timers plus the dispatch
  /// discipline (with or without the verdict gate), host-migration
  /// policy, and discovery strategy of one controller family
  /// (profiles.hpp). Unset keeps the testbed default (Floodlight);
  /// bench_montecarlo sweeps all_profiles() to map how each
  /// controller's cadence *and* processing model shift the race windows
  /// (ONOS's probe-before-move delays or rejects the rebind entirely).
  std::optional<ctrl::ControllerProfile> profile;
  /// Run the scenario without probing or hijacking (clean baseline for
  /// anomaly training / false-alert scoring; victim stays up).
  bool attack_enabled = true;
  /// Anomaly IDS hooks (see LinkAttackConfig).
  const ids::BehaviorProfile* anomaly_profile = nullptr;
  ids::ProfileTrainer* anomaly_trainer = nullptr;
};

struct HijackOutcome {
  bool hijack_succeeded = false;  // HTS re-bound victim's MAC to attacker
  bool traffic_redirected = false;  // peer's victim-bound ping hit attacker
  // All durations in ms, measured from the instant the victim unplugged.
  std::optional<double> down_to_final_probe_start_ms;  // Fig. 7
  std::optional<double> down_to_declared_down_ms;      // Fig. 8
  std::optional<double> down_to_iface_up_ms;           // Fig. 5
  std::optional<double> down_to_confirmed_ms;          // Fig. 6
  std::optional<double> ident_change_ms;               // Fig. 4 component
  std::size_t alerts_before_rejoin = 0;
  std::size_t alerts_after_rejoin = 0;
  std::size_t alerts_total = 0;
  std::size_t alerts_anomaly = 0;  // ProfileAnomalyService raises
  /// Anomaly IDS deviation totals (zero-initialized when no IDS ran).
  ids::AnomalyCounters anomaly;
  /// Full alert log (diagnostics and the alert-flood experiment).
  std::vector<ctrl::Alert> alerts;
  /// Runtime invariant checker counters (see LinkAttackOutcome).
  std::uint64_t invariant_sweeps = 0;
  std::uint64_t invariant_violations = 0;
  /// Simulator events executed by this trial's loop (bench `events`).
  std::uint64_t events_executed = 0;
  /// Per-listener dispatch counters (filled when the config asks).
  std::vector<ctrl::MessagePipeline::ListenerStats> pipeline_stats;
};

HijackOutcome run_hijack(const HijackConfig& config);

// ---------------------------------------------------------------------
// LLI latency series (paper Figs. 10-11, 13)
// ---------------------------------------------------------------------

struct LliSeries {
  struct Point {
    double t_s = 0.0;
    std::string link;
    double latency_ms = 0.0;
    std::optional<double> threshold_ms;
    bool flagged = false;
    bool fake = false;  // measurement belongs to the fabricated link
  };
  std::vector<Point> points;
  std::size_t fake_attempts = 0;
  std::size_t fake_detections = 0;
  bool fake_link_ever_registered = false;
  /// Fig. 10: per-real-link latency summaries.
  std::vector<std::pair<std::string, stats::Summary>> per_link;
  /// Simulator events executed by this trial's loop (bench `events`).
  std::uint64_t events_executed = 0;
};

struct LliExperimentConfig {
  std::uint64_t seed = 42;
  sim::Duration benign_window = sim::Duration::seconds(60);
  sim::Duration attack_window = sim::Duration::seconds(120);
  bool launch_attack = true;
  /// Out-of-band relay channel parameters (ablation: how fast must the
  /// attacker's side channel be before the LLI stops seeing it? The
  /// paper scopes out "point-to-point laser" hardware relays).
  attack::OobChannelConfig channel;
  /// Observability layer to attach (borrowed; nullptr runs unobserved).
  obs::Observability* obs = nullptr;
};

LliSeries run_lli_experiment(const LliExperimentConfig& config);

// ---------------------------------------------------------------------
// Probe timing & scan detection (paper Table I, Sec. V-B2)
// ---------------------------------------------------------------------

struct ProbeTimingRow {
  attack::ProbeType type;
  attack::Stealth stealth;
  const char* requirements = "";
  stats::Summary tool_overhead_ms;  // Table I "Timing" column model
  stats::Summary end_to_end_ms;     // full in-sim exchange incl. RTT
  std::size_t alive_detected = 0;   // sanity: probes that saw the target
  /// Simulator events executed by this trial's loop (bench `events`).
  std::uint64_t events_executed = 0;
};

ProbeTimingRow measure_probe_timing(attack::ProbeType type, std::size_t n,
                                    std::uint64_t seed);

struct ScanDetectionResult {
  attack::ProbeType type;
  double rate_per_s = 0.0;
  std::uint64_t probes_sent = 0;
  std::size_t ids_alerts = 0;
  /// Runtime invariant checker counters (see LinkAttackOutcome).
  std::uint64_t invariant_sweeps = 0;
  std::uint64_t invariant_violations = 0;
  /// Simulator events executed by this trial's loop (bench `events`).
  std::uint64_t events_executed = 0;
  /// Per-listener dispatch counters (always filled: the chain is tiny).
  std::vector<ctrl::MessagePipeline::ListenerStats> pipeline_stats;
  [[nodiscard]] bool detected() const { return ids_alerts > 0; }
};

/// `obs` (borrowed, may be null) attaches the observability layer to the
/// lab testbed for the duration of the scan.
ScanDetectionResult run_scan_detection(attack::ProbeType type,
                                       double rate_per_s,
                                       sim::Duration window,
                                       std::uint64_t seed,
                                       obs::Observability* obs = nullptr);

}  // namespace tmg::scenario
