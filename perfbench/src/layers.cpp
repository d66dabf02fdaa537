// Traced mode: splits trial time across the simulator's layers from
// outside the program. It times calls into public functions (spans),
// reads counts from the drivers' outcomes and from an observed pass,
// and runs paired on/off variants of one trial back to back, so host
// drift cancels in each difference.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/port_probing.hpp"
#include "bench.hpp"
#include "ctrl/defense_module.hpp"
#include "obs/observability.hpp"
#include "scenario/fleet.hpp"
#include "scenario/trial_runner.hpp"
#include "sim/event_loop.hpp"
#include "topo/generate.hpp"

namespace perfbench {

namespace {

using namespace tmg;

// Pipeline listener names (ListenerStats::name) across the three
// workloads' profiles and suites, in metric-key form.
const char* const kListeners[] = {
    "anomaly_ids",  "cmm",     "controller_core", "host_tracking",
    "link_discovery", "lli",   "observer",        "routing",
    "sphinx",       "topoguard", "verdict_gate"};

// Tolerance of the fleet phase split: the re-enacted phases must add up
// to the measured hijack within this share of it.
constexpr double kPhaseTolerance = 0.15;

/// Every per-layer metric, in print order. A workload that does not run
/// a layer reports 0 for it.
std::vector<Metric> layer_table() {
  std::vector<Metric> t = {
      {"sim.events_per_trial", 0, "count"},
      {"sim.ns_per_event", 0, "ns"},
      {"sim.queue_depth_p50", 0, "count"},
      {"sim.queue_depth_p99", 0, "count"},
      {"sim.queue_depth_top_bin_share", 0, "share"},
      {"sim.queue_op_ns", 0, "ns"},
      {"topo.generate_ms", 0, "ms"},
      {"scenario.build_ms", 0, "ms"},
      {"scenario.trial_base_ms", 0, "ms"},
      {"scenario.runner_self_ms", 0, "ms"},
      {"ctrl.discovery_ms", 0, "ms"},
      {"ctrl.host_warm_ms", 0, "ms"},
      {"ctrl.dispatches_per_trial", 0, "count"},
      {"ctrl.visited_per_dispatch", 0, "count"},
      {"ctrl.lldp_emitted_per_trial", 0, "count"},
      {"ctrl.profile_ms.pox", 0, "ms"},
      {"ctrl.profile_ms.opendaylight", 0, "ms"},
      {"ctrl.profile_ms.onos", 0, "ms"},
      {"of.packet_ins_per_trial", 0, "count"},
      {"of.bg_load_ms", 0, "ms"},
      {"defense.topoguard_ms", 0, "ms"},
      {"defense.sphinx_ms", 0, "ms"},
      {"defense.stack_ms", 0, "ms"},
      {"defense.ns_per_dispatch", 0, "ns"},
      {"ids.train_ms", 0, "ms"},
      {"ids.anomaly_ms", 0, "ms"},
      {"ids.scored_per_trial", 0, "count"},
      {"attack.probing_ms", 0, "ms"},
      {"obs.trace_overhead_ratio", 0, "ratio"},
  };
  for (const char* l : kListeners) {
    t.push_back({std::string("ctrl.listener_dispatches.") + l, 0, "count"});
  }
  for (const std::string& name : workload_names()) {
    const auto w = make_workload(name);
    if (w->cells() < 2) continue;  // one cell: its p50 is trial_ms_p50
    for (std::size_t c = 0; c < w->cells(); ++c) {
      t.push_back({"cell_ms_p50." + w->cell_name(c), 0, "ms"});
    }
  }
  return t;
}

class Layers {
 public:
  Layers() : metrics_{layer_table()} {}
  void set(const std::string& name, double v) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = v;
        return;
      }
    }
    std::fprintf(stderr, "perfbench: no per-layer metric named %s\n",
                 name.c_str());
  }
  [[nodiscard]] double get(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// A paired on/off difference: median over pairs of (on - off), each
/// pair run back to back with the same seed and alternating order.
struct Difference {
  std::string metric;
  std::string on;
  std::string off;
  std::vector<double> on_ms;
  std::vector<double> off_ms;

  [[nodiscard]] double median_ms() const {
    std::vector<double> d;
    for (std::size_t i = 0; i < on_ms.size(); ++i) d.push_back(on_ms[i] - off_ms[i]);
    return median(d);
  }
};

/// Time one trial of a variant (spanned); returns its host ms.
double timed_trial(Workload& w, std::uint64_t seed, std::size_t index,
                   Variant v, tmg::scenario::TrialArena& arena, SpanLog& spans,
                   std::size_t parent, TrialResult* out = nullptr) {
  TrialOptions opt;
  opt.arena = &arena;
  opt.variant = v;
  opt.collect_pipeline_stats = out != nullptr;
  tmg::scenario::TrialRunner::reset_trial_thread_state();
  const std::size_t span = spans.open(w.cell_name(index % w.cells()), parent);
  TrialResult r = w.run(seed, index, opt);
  spans.close(span);
  if (!r.problem.empty() && v == Variant::Base) {
    throw std::runtime_error("paired trial failed: " + r.problem);
  }
  if (out != nullptr) *out = std::move(r);
  return spans.duration_s(span) * 1e3;
}

/// Run `on` and `off` for each index, alternating which goes first.
void run_pairs(Workload& w, std::uint64_t seed,
               const std::vector<std::size_t>& indices, Variant on,
               Variant off, tmg::scenario::TrialArena& arena, SpanLog& spans,
               std::size_t parent, Difference& d) {
  for (std::size_t k = 0; k < indices.size(); ++k) {
    if (k % 2 == 0) {
      d.on_ms.push_back(timed_trial(w, seed, indices[k], on, arena, spans, parent));
      d.off_ms.push_back(timed_trial(w, seed, indices[k], off, arena, spans, parent));
    } else {
      d.off_ms.push_back(timed_trial(w, seed, indices[k], off, arena, spans, parent));
      d.on_ms.push_back(timed_trial(w, seed, indices[k], on, arena, spans, parent));
    }
  }
}

/// Median over rounds of the mean over `pairs` of cell differences
/// t[a] - t[b] within the round, from a pass whose cells alternate.
double round_difference(const Pass& pass, std::size_t cells,
                        const std::vector<std::pair<std::size_t, std::size_t>>& pairs) {
  std::vector<double> per_round;
  for (std::size_t r = 0; (r + 1) * cells <= pass.trial_ms.size(); ++r) {
    double sum = 0.0;
    for (const auto& [a, b] : pairs) {
      sum += pass.trial_ms[r * cells + a] - pass.trial_ms[r * cells + b];
    }
    per_round.push_back(sum / static_cast<double>(pairs.size()));
  }
  return median(per_round);
}

/// Quantile of a binned histogram, interpolated inside the bin.
double histogram_quantile(const std::vector<double>& counts, double lo,
                          double hi, double q) {
  double total = 0.0;
  for (const double c : counts) total += c;
  if (total == 0.0) return 0.0;
  const double width = (hi - lo) / static_cast<double>(counts.size());
  double seen = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (seen + counts[b] >= q * total && counts[b] > 0.0) {
      return lo + width * (static_cast<double>(b) + (q * total - seen) / counts[b]);
    }
    seen += counts[b];
  }
  return hi;
}

/// ns per executed event of a bare EventLoop held at `depth` pending
/// events: every event posts one successor at a random future time.
double queue_op_ns(std::size_t depth) {
  struct Churn {
    sim::EventLoop loop;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::size_t remaining = 0;
    sim::Duration delay() {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return sim::Duration::nanos(1 + static_cast<std::int64_t>(x % 1'000'000));
    }
    void fire() {
      if (remaining == 0) return;
      --remaining;
      loop.post_at(loop.now() + delay(), [this] { fire(); });
    }
  };
  Churn churn;
  const std::size_t ops = std::max<std::size_t>(400'000, 20 * depth);
  churn.remaining = ops;
  for (std::size_t i = 0; i < depth; ++i) {
    churn.loop.post_at(sim::SimTime::zero() + churn.delay(),
                       [&churn] { churn.fire(); });
  }
  const double t0 = now_s();
  churn.loop.run_until(sim::SimTime::max());
  const double t1 = now_s();
  return (t1 - t0) * 1e9 / static_cast<double>(churn.loop.events_executed());
}

/// Observed pass over one round: counts from obs::Observability with
/// dispatch tracing off. Returns the round's digests.
std::vector<std::uint64_t> observed_round(Workload& w, std::uint64_t seed,
                                          tmg::scenario::TrialArena& arena,
                                          SpanLog& spans, Layers& layers) {
  constexpr double kDepthHi = 4096.0;
  constexpr std::size_t kDepthBins = 64;
  std::vector<double> depth(kDepthBins, 0.0);
  double visited = 0.0, dispatches = 0.0, packet_ins = 0.0, lldp = 0.0;
  std::vector<std::uint64_t> digests;
  const std::size_t parent = spans.open("observed_round");
  for (std::size_t c = 0; c < w.cells(); ++c) {
    obs::ObsConfig cfg;
    cfg.trace_dispatch = false;
    obs::Observability o{cfg};
    TrialOptions opt;
    opt.arena = &arena;
    opt.obs = &o;
    tmg::scenario::TrialRunner::reset_trial_thread_state();
    const std::size_t span = spans.open(w.cell_name(c), parent);
    const TrialResult r = w.run(seed, c, opt);
    spans.close(span);
    digests.push_back(r.digest);
    obs::MetricsRegistry& m = o.metrics();
    const stats::Histogram& qd =
        m.histogram("sim.queue_depth", 0.0, kDepthHi, kDepthBins);
    for (std::size_t b = 0; b < kDepthBins; ++b) {
      depth[b] += static_cast<double>(qd.count(b));
    }
    const stats::Histogram& vis = m.histogram("pipeline.visited", 0.0, 32.0, 32);
    for (std::size_t b = 0; b < vis.bin_count(); ++b) {
      visited += static_cast<double>(vis.count(b)) * vis.bin_lo(b);
    }
    dispatches += static_cast<double>(m.counter("pipeline.dispatches").value());
    packet_ins += m.gauge("flow.packets").value();
    lldp += m.gauge("lldp.emitted").value();
  }
  spans.close(parent);
  const double n = static_cast<double>(w.cells());
  double samples = 0.0;
  for (const double c : depth) samples += c;
  // The obs histogram clamps depths beyond its range into its last bin.
  const double top_share = samples > 0.0 ? depth.back() / samples : 0.0;
  layers.set("sim.queue_depth_p50", histogram_quantile(depth, 0.0, kDepthHi, 0.50));
  layers.set("sim.queue_depth_p99", histogram_quantile(depth, 0.0, kDepthHi, 0.99));
  layers.set("sim.queue_depth_top_bin_share", top_share);
  if (top_share > 0.01) {
    std::fprintf(stderr,
                 "perfbench: sim.queue_depth_p99 is saturated: %.2f%% of "
                 "queue-depth samples sit in the obs histogram's last bin "
                 "(depth %.0f and deeper), so p99 cannot read deeper\n",
                 top_share * 100.0, kDepthHi * (kDepthBins - 1) / kDepthBins);
  }
  layers.set("ctrl.dispatches_per_trial", dispatches / n);
  layers.set("ctrl.visited_per_dispatch", dispatches > 0 ? visited / dispatches : 0.0);
  layers.set("of.packet_ins_per_trial", packet_ins / n);
  layers.set("ctrl.lldp_emitted_per_trial", lldp / n);
  return digests;
}

/// Pass-through stand-in for the fleet driver's hijack observer, so the
/// re-enacted controller chain has the driver's listeners.
class Observer final : public ctrl::DefenseModule {
 public:
  [[nodiscard]] std::string name() const override { return "observer"; }
};

/// fleet_k16: re-enact the hijack half of a trial through the public
/// fleet functions, one span per phase, and check the phases add up to
/// the driver's own hijack at the same seed; pair background on/off.
void fleet_probes(Workload& w, std::uint64_t seed,
                  tmg::scenario::TrialArena& arena, SpanLog& spans,
                  Layers& layers, std::vector<Difference>& diffs,
                  std::vector<std::string>& notes) {
  using sim::Duration;
  constexpr std::size_t kReps = 5;
  std::vector<double> gen, build, discovery, warm, rest, ratio, measured;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    const std::size_t parent = spans.open("fleet.phase_split");
    const tmg::scenario::FleetHijackConfig h = fleet_hijack_config(seed, rep);
    const std::size_t s_gen = spans.open("topo.generate", parent);
    (void)topo::generate(h.topology);
    spans.close(s_gen);

    tmg::scenario::FleetTestbedConfig ftc;
    ftc.topology = h.topology;
    ftc.options = tmg::scenario::suite_options(h.suite, h.seed);
    ftc.options.check_invariants = false;
    ftc.options.loop = &arena.acquire();
    const std::size_t s_build = spans.open("scenario.make_fleet_testbed", parent);
    std::size_t s_disc = 0, s_warm = 0, s_rest = 0;
    {
      tmg::scenario::FleetTestbed f = tmg::scenario::make_fleet_testbed(ftc);
      sim::EventLoop& loop = f.tb->loop();
      f.tb->controller().add_defense(std::make_unique<Observer>());
      attack::PortProbingConfig pc;
      pc.victim_ip = f.victim->ip();
      pc.probe_type = h.probe_type;
      pc.probe_period = h.probe_period;
      pc.probe_timeout = h.probe_timeout;
      pc.confirm_failures = h.confirm_failures;
      pc.nmap_overhead = h.nmap_overhead;
      attack::PortProbingAttack attack{loop, f.tb->fork_rng(), *f.attacker, pc};
      spans.close(s_build);

      s_disc = spans.open("testbed.start", parent);
      f.tb->start(Duration::seconds(2));
      spans.close(s_disc);
      s_warm = spans.open("fleet_warm_hosts", parent);
      tmg::scenario::fleet_warm_hosts(f);
      spans.close(s_warm);

      // The rest of the driver's timeline: background load, the peer's
      // pings, probing, the victim's move, and teardown.
      s_rest = spans.open("hijack_timeline", parent);
      tmg::scenario::BackgroundTraffic traffic{*f.tb, f.tb->fork_rng(),
                                              h.background};
      tmg::scenario::fleet_attach_background(f, traffic);
      traffic.start();
      const net::MacAddress victim_mac = f.victim->mac();
      const net::Ipv4Address victim_ip = f.victim->ip();
      std::uint16_t ping_seq = 0;
      const std::function<void()> peer_ping = [&] {
        f.peer->send_ping(victim_mac, victim_ip, 0x2222, ping_seq++);
        loop.post_after(Duration::millis(200), [&peer_ping] { peer_ping(); });
      };
      loop.post_after(Duration::zero(), [&peer_ping] { peer_ping(); });
      attack.start();
      f.tb->run_for(h.settle_window +
                    Duration::nanos(h.probe_period.count_nanos() / 2));
      tmg::scenario::migrate_host(*f.tb, *f.victim, *f.migration_target,
                                  h.victim_downtime);
      loop.post_after(h.victim_downtime + Duration::millis(50),
                      [&f] { f.victim->send_arp_request(f.victim->ip()); });
      f.tb->run_for(h.victim_downtime + Duration::seconds(3));
      traffic.stop();
    }
    spans.close(s_rest);
    spans.close(parent);
    const double g = spans.duration_s(s_gen) * 1e3;
    gen.push_back(g);
    build.push_back(spans.duration_s(s_build) * 1e3 - g);  // build re-generates
    discovery.push_back(spans.duration_s(s_disc) * 1e3);
    warm.push_back(spans.duration_s(s_warm) * 1e3);
    rest.push_back(spans.duration_s(s_rest) * 1e3);
    measured.push_back(timed_trial(w, seed, rep, Variant::HijackOnly, arena,
                                   spans, 0));
    ratio.push_back((gen.back() + build.back() + discovery.back() +
                     warm.back() + rest.back()) /
                    measured.back());
  }
  Difference bg{"of.bg_load_ms", "fleet hijack, background on",
                "fleet hijack, background off", {}, {}};
  std::vector<std::size_t> indices(kReps);
  for (std::size_t k = 0; k < kReps; ++k) indices[k] = k;
  run_pairs(w, seed, indices, Variant::HijackOnly, Variant::BackgroundOff,
            arena, spans, 0, bg);
  diffs.push_back(bg);

  layers.set("topo.generate_ms", median(gen));
  layers.set("scenario.build_ms", median(build));
  layers.set("ctrl.discovery_ms", median(discovery));
  layers.set("ctrl.host_warm_ms", median(warm));
  const double phase_ratio = median(ratio);
  std::fprintf(stderr,
               "perfbench: fleet phases (median ms): generate %.1f + build "
               "%.1f + discovery %.1f + host warm %.1f + timeline %.1f; "
               "driver's hijack %.1f; phase sum / hijack, median of %zu "
               "same-seed pairs: %.3f (tolerance %.2f)\n",
               median(gen), median(build), median(discovery), median(warm),
               median(rest), median(measured), kReps, phase_ratio,
               kPhaseTolerance);
  if (std::abs(phase_ratio - 1.0) > kPhaseTolerance) {
    notes.push_back("fleet phases do not add up to the measured hijack");
  }
}

/// paper_race: attack on/off on the None cells, paired per seed.
void race_probes(Workload& w, std::uint64_t seed,
                 tmg::scenario::TrialArena& arena, SpanLog& spans,
                 Layers& layers, std::vector<Difference>& diffs) {
  constexpr std::size_t kRounds = 150;
  constexpr std::size_t kSuites = 3;  // None is suite 0 of each profile
  std::vector<std::size_t> indices;
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t c = 0; c < w.cells(); c += kSuites) {
      indices.push_back(r * w.cells() + c);
    }
  }
  Difference probing{"attack.probing_ms", "None cell, attack on",
                     "None cell, attack_enabled=false", {}, {}};
  const std::size_t parent = spans.open("race.attack_pairs");
  run_pairs(w, seed, indices, Variant::Base, Variant::AttackOff, arena, spans,
            parent, probing);
  spans.close(parent);
  layers.set("scenario.trial_base_ms", median(probing.off_ms));
  diffs.push_back(probing);
}

/// defense_stack: Stacked+IDS vs Stacked vs no defense, paired per seed.
void stack_probes(Workload& w, std::uint64_t seed,
                  tmg::scenario::TrialArena& arena, SpanLog& spans,
                  Layers& layers, std::vector<Difference>& diffs) {
  constexpr std::size_t kRounds = 10;
  Difference ids{"ids.anomaly_ms", "Stacked + anomaly IDS", "Stacked", {}, {}};
  Difference stack{"defense.stack_ms", "Stacked", "suite None", {}, {}};
  double defense_deliveries = 0.0;
  const std::size_t parent = spans.open("stack.variant_triples");
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t c = 0; c < w.cells(); ++c) {
      const std::size_t i = r * w.cells() + c;
      TrialResult stacked, bare;
      ids.on_ms.push_back(timed_trial(w, seed, i, Variant::Base, arena, spans, parent));
      const double mid = timed_trial(w, seed, i, Variant::IdsOff, arena, spans,
                                     parent, &stacked);
      ids.off_ms.push_back(mid);
      stack.on_ms.push_back(mid);
      stack.off_ms.push_back(timed_trial(w, seed, i, Variant::DefenseOff, arena,
                                         spans, parent, &bare));
      // Deliveries to the listeners only the stacked chain has.
      for (const auto& s : stacked.listeners) {
        const bool in_bare = std::any_of(
            bare.listeners.begin(), bare.listeners.end(),
            [&](const auto& b) { return b.name == s.name; });
        if (!in_bare) defense_deliveries += static_cast<double>(s.dispatches);
      }
    }
  }
  spans.close(parent);
  const double n = static_cast<double>(stack.on_ms.size());
  layers.set("defense.ns_per_dispatch",
             defense_deliveries > 0
                 ? stack.median_ms() * 1e6 / (defense_deliveries / n)
                 : 0.0);
  diffs.push_back(ids);
  diffs.push_back(stack);
}

}  // namespace

int run_traced(Workload& w, const Args& args) {
  SpanLog spans;
  Layers layers;
  std::vector<std::string> notes;
  std::vector<Difference> diffs;
  tmg::scenario::TrialArena arena;

  const std::size_t s_setup = spans.open("setup");
  (void)set_up(w, args.seed, arena);
  spans.close(s_setup);
  const std::size_t s_inputs = spans.open("build_inputs");
  w.build_inputs(args.seed, arena);
  spans.close(s_inputs);
  if (std::string(w.name()) == "defense_stack") {
    layers.set("ids.train_ms", spans.duration_s(s_inputs) * 1e3);
  }

  // Untraced and traced passes over the same trials: the overhead ratio
  // and the traced-equals-untraced digest check.
  PassOptions plain;
  plain.trial.arena = &arena;
  plain.keep_all = true;
  Pass untraced = timed_pass(w, args.seed, args.seconds / 2, w.digest_trials(),
                             plain);
  PassOptions traced_opt = plain;
  traced_opt.trial.collect_pipeline_stats = true;
  traced_opt.spans = &spans;
  double events = 0.0, scored = 0.0;
  std::map<std::string, double> deliveries;
  traced_opt.sink = [&](const TrialResult& r) {
    events += static_cast<double>(r.events);
    scored += static_cast<double>(r.anomaly_scored);
    for (const auto& s : r.listeners) {
      deliveries[metric_key(s.name)] += static_cast<double>(s.dispatches);
    }
  };
  Pass traced = timed_pass(w, args.seed, args.seconds / 2, w.digest_trials(),
                           traced_opt);
  std::size_t traced_mismatch = 0;
  for (std::size_t i = 0; i < traced.digest.size() && i < untraced.digest.size(); ++i) {
    if (traced.digest[i] != untraced.digest[i]) {
      ++traced_mismatch;
      traced.fail(i, "traced digest differs");
    }
  }
  if (traced_mismatch != 0) {
    notes.push_back(std::to_string(traced_mismatch) +
                    " traced trials differ from the untraced pass");
  }
  for (const std::string& n : check_outcomes(w, args, traced, arena)) {
    notes.push_back(n);
  }

  const double n = static_cast<double>(traced.trial_ms.size());
  double trial_ms_total = 0.0;
  for (const double ms : traced.trial_ms) trial_ms_total += ms;
  layers.set("sim.events_per_trial", events / n);
  layers.set("sim.ns_per_event", trial_ms_total * 1e6 / events);
  layers.set("scenario.runner_self_ms",
             (spans.duration_s(traced.run_span) * 1e3 - trial_ms_total) / n);
  layers.set("ids.scored_per_trial", scored / n);
  layers.set("obs.trace_overhead_ratio",
             median(traced.trial_ms) / median(untraced.trial_ms));
  for (const auto& [name, count] : deliveries) {
    layers.set("ctrl.listener_dispatches." + name, count / n);
  }
  if (w.cells() > 1) {
    std::vector<std::vector<double>> per_cell(w.cells());
    for (std::size_t i = 0; i < traced.trial_ms.size(); ++i) {
      per_cell[i % w.cells()].push_back(traced.trial_ms[i]);
    }
    for (std::size_t c = 0; c < w.cells(); ++c) {
      layers.set("cell_ms_p50." + w.cell_name(c), median(per_cell[c]));
    }
    // Profile cost against Floodlight, paired within each round over the
    // cells that differ only in profile.
    std::vector<std::size_t> floodlight;
    for (std::size_t c = 0; c < w.cells(); ++c) {
      if (w.cell_profile(c) == "Floodlight") floodlight.push_back(c);
    }
    const std::size_t variants = floodlight.size();
    for (const char* profile : {"POX", "OpenDaylight", "ONOS"}) {
      std::vector<std::pair<std::size_t, std::size_t>> pairs;
      for (std::size_t c = 0; c < w.cells(); ++c) {
        if (w.cell_profile(c) == profile) {
          pairs.emplace_back(c, floodlight[c % variants]);
        }
      }
      layers.set("ctrl.profile_ms." + metric_key(profile),
                 round_difference(traced, w.cells(), pairs));
      std::fprintf(stderr,
                   "perfbench: ctrl.profile_ms.%s = %s cells - Floodlight "
                   "cells, paired within each round\n",
                   metric_key(profile).c_str(), profile);
    }
  }
  if (std::string(w.name()) == "paper_race") {
    // Suites are cells 0/1/2 of each profile: None, TopoGuard, TG+SPHINX.
    std::vector<std::pair<std::size_t, std::size_t>> tg, sphinx;
    for (std::size_t c = 0; c < w.cells(); c += 3) {
      tg.emplace_back(c + 1, c);
      sphinx.emplace_back(c + 2, c + 1);
    }
    layers.set("defense.topoguard_ms", round_difference(traced, w.cells(), tg));
    layers.set("defense.sphinx_ms", round_difference(traced, w.cells(), sphinx));
    std::fprintf(stderr,
                 "perfbench: defense.topoguard_ms = TopoGuard - None cells; "
                 "defense.sphinx_ms = TopoGuard+SPHINX - TopoGuard cells; "
                 "paired within each round\n");
  }

  // Observed round: counts, and obs must not change any outcome.
  const std::vector<std::uint64_t> observed =
      observed_round(w, args.seed, arena, spans, layers);
  for (std::size_t c = 0; c < observed.size(); ++c) {
    if (observed[c] != traced.digest[c]) {
      notes.push_back("observed trial " + std::to_string(c) + " differs");
    }
  }
  const std::size_t s_queue = spans.open("sim.queue_op");
  layers.set("sim.queue_op_ns",
             queue_op_ns(static_cast<std::size_t>(std::max(
                 1.0, std::round(layers.get("sim.queue_depth_p50"))))));
  spans.close(s_queue);

  const std::string name = w.name();
  if (name == "fleet_k16") {
    fleet_probes(w, args.seed, arena, spans, layers, diffs, notes);
  } else if (name == "paper_race") {
    race_probes(w, args.seed, arena, spans, layers, diffs);
  } else {
    stack_probes(w, args.seed, arena, spans, layers, diffs);
  }
  for (const Difference& d : diffs) {
    layers.set(d.metric, d.median_ms());
    std::fprintf(stderr,
                 "perfbench: %s = (%s) - (%s), median of %zu same-seed "
                 "pairs: %.4f ms\n",
                 d.metric.c_str(), d.on.c_str(), d.off.c_str(), d.on_ms.size(),
                 d.median_ms());
  }

  if (!spans.write(PERFBENCH_SPANS)) {
    notes.push_back(std::string("cannot write span log ") + PERFBENCH_SPANS);
  }
  for (const std::string& note : notes) {
    std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  }
  const std::size_t attempted = untraced.trials + traced.trials;
  const std::size_t failed = untraced.failed() + traced.failed();
  return report(notes.empty() && failed == 0, attempted, failed,
                layers.metrics());
}

}  // namespace perfbench
