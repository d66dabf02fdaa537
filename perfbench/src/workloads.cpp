#include "workloads.hpp"

#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "ctrl/profiles.hpp"
#include "ids/behavior_profile.hpp"
#include "scenario/experiments.hpp"
#include "scenario/fleet.hpp"
#include "scenario/trial_arena.hpp"
#include "scenario/trial_runner.hpp"
#include "topo/generate.hpp"

namespace perfbench {

using namespace tmg;
using scenario::DefenseSuite;
using scenario::LinkAttackKind;
using scenario::TrialRunner;

void Digest::add(std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h_ ^= (v >> (8 * byte)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(const std::optional<double>& ms) {
  add(ms.has_value());
  if (ms) add(static_cast<std::uint64_t>(std::llround(*ms * 1e6)));
}

std::string metric_key(const std::string& s) {
  std::string out;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    out += std::isalnum(u) ? static_cast<char>(std::tolower(u)) : '_';
  }
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

namespace {

/// Simulation seed number `index` of a stream of a run. trial_seed
/// scrambles base ^ index, so run seeds used directly as bases would
/// give two small run seeds the same trial seeds in another order; the
/// run seed is scrambled into the base first.
std::uint64_t stream_seed(std::uint64_t run_seed, std::uint64_t stream,
                          std::size_t index) {
  return TrialRunner::trial_seed(TrialRunner::trial_seed(run_seed, 0) ^ stream,
                                 index);
}

using Listeners = std::vector<ctrl::MessagePipeline::ListenerStats>;

void add_listeners(Listeners& into, const Listeners& from) {
  for (const auto& s : from) {
    bool merged = false;
    for (auto& t : into) {
      if (t.name == s.name) {
        t.dispatches += s.dispatches;
        merged = true;
        break;
      }
    }
    if (!merged) into.push_back(s);
  }
}

void add_background(Digest& d, const scenario::BackgroundTraffic::Stats& s) {
  d.add(s.flows_started);
  d.add(s.packets_offered);
  d.add(s.arp_announcements);
  d.add(s.migrations);
}

// ---------------------------------------------------------------------
// fleet_k16: bench_fleet's k=16 cell. One trial is a hijack plus a
// classic link relay on a 320-switch fat-tree tracking 1,024 hosts
// under background load, Floodlight profile, no defenses.
// ---------------------------------------------------------------------
class FleetK16 final : public Workload {
 public:
  FleetK16() : gen_{fleet_hijack_config(0, 0).topology} {}

  const char* name() const override { return "fleet_k16"; }
  std::size_t cells() const override { return 1; }
  std::string cell_name(std::size_t) const override { return "fleet"; }
  std::string cell_profile(std::size_t) const override { return "Floodlight"; }
  std::size_t warmup_rounds() const override { return 1; }
  std::size_t digest_trials() const override { return 2; }

  void build_inputs(std::uint64_t, scenario::TrialArena&) override {
    const topo::GeneratedTopology shape = topo::generate(gen_);
    if (shape.switch_count() != kSwitches || shape.hosts.size() != kHosts) {
      throw std::runtime_error("fleet_k16: unexpected fat-tree shape");
    }
  }

  TrialResult run(std::uint64_t seed, std::size_t index,
                  const TrialOptions& opt) override {
    TrialResult r;
    Digest d;

    scenario::FleetHijackConfig h = fleet_hijack_config(seed, index);
    h.background_on = opt.variant != Variant::BackgroundOff;
    h.collect_pipeline_stats = opt.collect_pipeline_stats;
    h.obs = opt.obs;
    h.arena = opt.arena;
    const scenario::FleetHijackOutcome ho = scenario::run_fleet_hijack(h);
    d.add(ho.hijack_succeeded);
    d.add(ho.traffic_redirected);
    d.add(ho.down_to_final_probe_start_ms);
    d.add(ho.down_to_declared_down_ms);
    d.add(ho.down_to_iface_up_ms);
    d.add(ho.down_to_confirmed_ms);
    d.add(static_cast<std::uint64_t>(ho.hosts_tracked));
    add_background(d, ho.background);
    d.add(ho.alerts_total);
    r.events += ho.events_executed;
    add_listeners(r.listeners, ho.pipeline_stats);
    if (ho.hosts_tracked != kHosts) r.problem = "hijack: HTS lost hosts";
    if (opt.variant == Variant::BackgroundOff ||
        opt.variant == Variant::HijackOnly) {
      r.digest = d.value();
      return r;
    }

    scenario::FleetLinkAttackConfig l;
    l.topology = gen_;
    l.kind = LinkAttackKind::ClassicRelay;
    l.seed = stream_seed(seed, 0, 2 * index + 1);
    l.benign_window = sim::Duration::seconds(4);
    l.attack_window = sim::Duration::seconds(34);
    l.check_invariants = false;
    l.collect_pipeline_stats = opt.collect_pipeline_stats;
    l.obs = opt.obs;
    l.arena = opt.arena;
    const scenario::FleetLinkAttackOutcome lo = scenario::run_fleet_link_attack(l);
    d.add(lo.link_registered);
    d.add(lo.link_present_at_end);
    d.add(lo.mitm_traffic);
    d.add(lo.lldp_relayed);
    d.add(lo.transit_bridged);
    d.add(lo.flaps);
    d.add(static_cast<std::uint64_t>(lo.hosts_tracked));
    add_background(d, lo.background);
    d.add(lo.alerts_before_attack);
    d.add(lo.alerts_total);
    d.add(lo.alerts_topoguard);
    r.events += lo.events_executed;
    add_listeners(r.listeners, lo.pipeline_stats);
    if (lo.hosts_tracked != kHosts) r.problem = "link: HTS lost hosts";
    if (!lo.link_registered) r.problem = "link: undefended relay not registered";
    r.digest = d.value();
    return r;
  }

 private:
  static constexpr std::size_t kSwitches = 320;
  static constexpr std::size_t kHosts = 1024;
  topo::GeneratorConfig gen_;
};

// ---------------------------------------------------------------------
// paper_race: bench_montecarlo's 12 cells, the Figs. 5-8 port-probing
// race on the Fig. 2 testbed under 4 profiles x 3 defense suites.
// ---------------------------------------------------------------------
constexpr std::array<DefenseSuite, 3> kRaceSuites = {
    DefenseSuite::None, DefenseSuite::TopoGuard,
    DefenseSuite::TopoGuardAndSphinx};
constexpr std::array<const char*, 3> kRaceSuiteKeys = {"none", "topoguard",
                                                       "tg_sphinx"};

class PaperRace final : public Workload {
 public:
  PaperRace() : profiles_{ctrl::all_profiles()} {}

  const char* name() const override { return "paper_race"; }
  std::size_t cells() const override {
    return profiles_.size() * kRaceSuites.size();
  }
  std::string cell_name(std::size_t c) const override {
    return "race." + metric_key(profiles_[c / kRaceSuites.size()].name) + "." +
           kRaceSuiteKeys[c % kRaceSuites.size()];
  }
  std::string cell_profile(std::size_t c) const override {
    return profiles_[c / kRaceSuites.size()].name;
  }
  std::size_t warmup_rounds() const override { return 160; }
  std::size_t digest_trials() const override { return 5 * cells(); }

  void build_inputs(std::uint64_t, scenario::TrialArena&) override {}

  TrialResult run(std::uint64_t seed, std::size_t index,
                  const TrialOptions& opt) override {
    const std::size_t c = index % cells();
    scenario::HijackConfig cfg;
    cfg.suite = kRaceSuites[c % kRaceSuites.size()];
    cfg.profile = profiles_[c / kRaceSuites.size()];
    cfg.seed = stream_seed(seed, 0, index / cells());
    cfg.check_invariants = false;
    cfg.collect_pipeline_stats = opt.collect_pipeline_stats;
    cfg.attack_enabled = opt.variant != Variant::AttackOff;
    cfg.obs = opt.obs;
    cfg.arena = opt.arena;
    const scenario::HijackOutcome o = scenario::run_hijack(cfg);

    Digest d;
    d.add(o.hijack_succeeded);
    d.add(o.traffic_redirected);
    d.add(o.down_to_final_probe_start_ms);
    d.add(o.down_to_declared_down_ms);
    d.add(o.down_to_iface_up_ms);
    d.add(o.down_to_confirmed_ms);
    d.add(o.ident_change_ms);
    d.add(static_cast<std::uint64_t>(o.alerts_before_rejoin));
    d.add(static_cast<std::uint64_t>(o.alerts_after_rejoin));
    d.add(static_cast<std::uint64_t>(o.alerts_anomaly));
    d.add(static_cast<std::uint64_t>(o.alerts.size()));
    TrialResult r;
    r.digest = d.value();
    r.events = o.events_executed;
    r.listeners = o.pipeline_stats;
    return r;
  }

 private:
  std::vector<ctrl::ControllerProfile> profiles_;
};

// ---------------------------------------------------------------------
// defense_stack: the link-fabrication matrix on the Fig. 9 testbed,
// 4 profiles x 4 attacks, against DefenseSuite::Stacked plus the
// anomaly IDS in detect mode (baselines trained during set-up).
// ---------------------------------------------------------------------
constexpr std::array<LinkAttackKind, 4> kStackKinds = {
    LinkAttackKind::OobAmnesia, LinkAttackKind::InBandAmnesia,
    LinkAttackKind::FlowRuleRelay, LinkAttackKind::ClassicRelay};
constexpr std::array<const char*, 4> kStackKindKeys = {"oob_amnesia",
                                                       "inband_amnesia",
                                                       "flow_rule_relay",
                                                       "classic_relay"};

class DefenseStack final : public Workload {
 public:
  DefenseStack() : profiles_{ctrl::all_profiles()} {}

  const char* name() const override { return "defense_stack"; }
  std::size_t cells() const override {
    return profiles_.size() * kStackKinds.size();
  }
  std::string cell_name(std::size_t c) const override {
    return "stack." + metric_key(profiles_[c / kStackKinds.size()].name) + "." +
           kStackKindKeys[c % kStackKinds.size()];
  }
  std::string cell_profile(std::size_t c) const override {
    return profiles_[c / kStackKinds.size()].name;
  }
  std::size_t warmup_rounds() const override { return 6; }
  std::size_t digest_trials() const override { return 2 * cells(); }

  void build_inputs(std::uint64_t seed, scenario::TrialArena& arena) override {
    baselines_.clear();
    for (const ctrl::ControllerProfile& profile : profiles_) {
      ids::ProfileTrainer trainer;
      for (std::size_t t = 0; t < kTrainTrials; ++t) {
        scenario::LinkAttackConfig cfg;
        cfg.suite = DefenseSuite::Stacked;
        cfg.seed = stream_seed(seed, kTrainStream, t);
        cfg.profile = profile;
        cfg.attack_enabled = false;
        cfg.anomaly_trainer = &trainer;
        cfg.check_invariants = false;
        cfg.arena = &arena;
        (void)scenario::run_link_attack(cfg);
      }
      baselines_.push_back(trainer.finalize());
    }
  }

  TrialResult run(std::uint64_t seed, std::size_t index,
                  const TrialOptions& opt) override {
    const std::size_t c = index % cells();
    const std::size_t p = c / kStackKinds.size();
    scenario::LinkAttackConfig cfg;
    cfg.kind = kStackKinds[c % kStackKinds.size()];
    cfg.suite = opt.variant == Variant::DefenseOff ? DefenseSuite::None
                                                   : DefenseSuite::Stacked;
    cfg.profile = profiles_[p];
    cfg.seed = stream_seed(seed, 0, index / cells());
    if (opt.variant == Variant::Base) cfg.anomaly_profile = &baselines_.at(p);
    cfg.check_invariants = false;
    cfg.collect_pipeline_stats = opt.collect_pipeline_stats;
    cfg.obs = opt.obs;
    cfg.arena = opt.arena;
    const scenario::LinkAttackOutcome o = scenario::run_link_attack(cfg);

    Digest d;
    d.add(o.link_registered);
    d.add(o.link_present_at_end);
    d.add(o.mitm_traffic);
    d.add(o.lldp_relayed);
    d.add(o.transit_bridged);
    d.add(o.flaps);
    for (const std::size_t n :
         {o.alerts_before_attack, o.alerts_total, o.alerts_topoguard,
          o.alerts_sphinx, o.alerts_cmm, o.alerts_lli, o.alerts_anomaly}) {
      d.add(static_cast<std::uint64_t>(n));
    }
    d.add(o.anomaly.scored);
    d.add(o.anomaly.deviations());
    d.add(o.anomaly.alerts);
    d.add(o.anomaly.vetoes);
    TrialResult r;
    r.digest = d.value();
    r.events = o.events_executed;
    r.anomaly_scored = o.anomaly.scored;
    r.listeners = o.pipeline_stats;
    // The stacked modules raise alerts on every attack of the matrix.
    if (opt.variant != Variant::DefenseOff && !o.detected()) {
      r.problem = "attack not detected";
    }
    return r;
  }

 private:
  static constexpr std::size_t kTrainTrials = 8;
  static constexpr std::uint64_t kTrainStream = 0x7a11'5eedULL;
  std::vector<ctrl::ControllerProfile> profiles_;
  std::vector<ids::BehaviorProfile> baselines_;
};

}  // namespace

scenario::FleetHijackConfig fleet_hijack_config(std::uint64_t seed,
                                                std::size_t index) {
  scenario::FleetHijackConfig h;
  h.topology.k = 16;
  h.seed = stream_seed(seed, 0, 2 * index);
  h.settle_window = sim::Duration::seconds(3);
  h.check_invariants = false;
  return h;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fleet_k16", "paper_race",
                                                 "defense_stack"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fleet_k16") return std::make_unique<FleetK16>();
  if (name == "paper_race") return std::make_unique<PaperRace>();
  if (name == "defense_stack") return std::make_unique<DefenseStack>();
  return nullptr;
}

}  // namespace perfbench
