// Fleet-scale sweep: topology size x background load (DESIGN.md §12).
//
// Every cell instantiates a generated fat-tree (topo::generate) as a
// live testbed — hundreds of switches, the full host population tracked
// by the host table — and runs the paper's two attacks end to end
// through the real pipeline while scenario::BackgroundTraffic keeps the
// control plane busy: the host-location hijack (Figs. 5-8 race windows,
// now raced against a loaded controller) and the classic link
// fabrication. The k=16 cell tracks all 1,024 generated hosts with
// background traffic on.
//
// Scale machinery is the same as bench_montecarlo: trials stream
// through TrialRunner::reduce() into streaming-quantile accumulators
// inside per-worker TrialArenas; chunk boundaries and merge order
// depend only on the trial count, so stdout (minus the [bench] footer)
// and the "fleet" JSON payload are byte-identical for every --jobs
// value (tools/run_bench.py diffs jobs 1 vs 8).
//
// A host-table pass rides along: direct HostTable inserts and lookups
// at fleet-beyond sizes (10^6 records), whose record/found/audit counts
// enter the JSON.
//
//   --trials N   trials per (cell, attack) (default 4; --quick 2)
//   --jobs N     worker threads (0 = hardware)
//   --json PATH  bench record + "fleet" cell tables
//   --obs        observed re-run of the first cell's hijack ("obs" key)
//   --obs-out / --trace-out
//                export that run's metrics JSON / trace JSONL to files
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_harness.hpp"
#include "bench_util.hpp"
#include "ctrl/host_table.hpp"
#include "ctrl/profiles.hpp"
#include "obs/observability.hpp"
#include "scenario/fleet.hpp"
#include "scenario/trial_arena.hpp"
#include "scenario/trial_runner.hpp"
#include "stats/streaming_quantile.hpp"
#include "topo/generate.hpp"

using namespace tmg;
using namespace tmg::bench;

namespace {

struct Metric {
  const char* key;
  const char* label;
  std::optional<double> (*get)(const scenario::FleetHijackOutcome&);
};

const Metric kMetrics[] = {
    {"iface_up_ms", "Fig5 iface-up",
     [](const scenario::FleetHijackOutcome& o) {
       return o.down_to_iface_up_ms;
     }},
    {"confirmed_ms", "Fig6 confirmed",
     [](const scenario::FleetHijackOutcome& o) {
       return o.down_to_confirmed_ms;
     }},
    {"final_probe_start_ms", "Fig7 probe-start",
     [](const scenario::FleetHijackOutcome& o) {
       return o.down_to_final_probe_start_ms;
     }},
    {"declared_down_ms", "Fig8 declared-down",
     [](const scenario::FleetHijackOutcome& o) {
       return o.down_to_declared_down_ms;
     }},
};
constexpr std::size_t kNMetrics = sizeof(kMetrics) / sizeof(kMetrics[0]);

struct Dist {
  std::uint64_t count = 0;
  double sum = 0.0;
  stats::StreamingQuantile p50{0.50};
  stats::StreamingQuantile p90{0.90};

  void fold(double x) {
    ++count;
    sum += x;
    p50.add(x);
    p90.add(x);
  }
  void merge(const Dist& other) {
    count += other.count;
    sum += other.sum;
    p50.merge(other.p50);
    p90.merge(other.p90);
  }
};

struct HijackAcc {
  std::uint64_t trials = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t events = 0;
  std::uint64_t hosts_tracked = 0;  // identical per trial; keep the max
  std::uint64_t bg_flows = 0;
  std::uint64_t bg_migrations = 0;
  Dist dist[kNMetrics];

  void fold(const scenario::FleetHijackOutcome& out) {
    ++trials;
    if (out.hijack_succeeded) ++succeeded;
    events += out.events_executed;
    hosts_tracked = std::max(hosts_tracked,
                             static_cast<std::uint64_t>(out.hosts_tracked));
    bg_flows += out.background.flows_started;
    bg_migrations += out.background.migrations;
    for (std::size_t m = 0; m < kNMetrics; ++m) {
      if (const auto v = kMetrics[m].get(out)) dist[m].fold(*v);
    }
  }
  void merge(const HijackAcc& other) {
    trials += other.trials;
    succeeded += other.succeeded;
    events += other.events;
    hosts_tracked = std::max(hosts_tracked, other.hosts_tracked);
    bg_flows += other.bg_flows;
    bg_migrations += other.bg_migrations;
    for (std::size_t m = 0; m < kNMetrics; ++m) dist[m].merge(other.dist[m]);
  }
};

struct LinkAcc {
  std::uint64_t trials = 0;
  std::uint64_t registered = 0;
  std::uint64_t mitm = 0;
  std::uint64_t events = 0;
  std::uint64_t hosts_tracked = 0;
  std::uint64_t bg_flows = 0;

  void fold(const scenario::FleetLinkAttackOutcome& out) {
    ++trials;
    if (out.link_registered) ++registered;
    if (out.mitm_traffic) ++mitm;
    events += out.events_executed;
    hosts_tracked = std::max(hosts_tracked,
                             static_cast<std::uint64_t>(out.hosts_tracked));
    bg_flows += out.background.flows_started;
  }
  void merge(const LinkAcc& other) {
    trials += other.trials;
    registered += other.registered;
    mitm += other.mitm;
    events += other.events;
    hosts_tracked = std::max(hosts_tracked, other.hosts_tracked);
    bg_flows += other.bg_flows;
  }
};

struct Cell {
  std::string label;
  topo::GeneratorConfig gen;
  bool background = true;
  /// Controller pipeline profile override; unset = testbed default
  /// (Floodlight). The ONOS cell races the hijack against
  /// probe-before-move migration on the same fabric.
  std::optional<ctrl::ControllerProfile> profile;
};

std::string fmt_d(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string dist_json(const Dist& d) {
  if (d.count == 0) return "{\"count\": 0}";
  std::string s = "{\"count\": " + std::to_string(d.count);
  s += ", \"mean\": " + fmt_d(d.sum / static_cast<double>(d.count));
  s += ", \"min\": " + fmt_d(d.p50.min());
  s += ", \"p50\": " + fmt_d(d.p50.value());
  s += ", \"p90\": " + fmt_d(d.p90.value());
  s += ", \"max\": " + fmt_d(d.p50.max());
  s += "}";
  return s;
}

/// Direct host-table inserts and lookups at fleet-beyond population
/// sizes (the HTS data structure, without the simulator around it).
/// Returns the JSON fragment of its counts.
std::string host_table_pass(std::size_t records) {
  ctrl::HostTable table;
  for (std::size_t i = 0; i < records; ++i) {
    ctrl::HostRecord rec;
    rec.mac = topo::fleet_mac(static_cast<std::uint32_t>(i));
    rec.ip = topo::fleet_ip(static_cast<std::uint32_t>(i));
    rec.loc = of::Location{1 + (i >> 6), static_cast<of::PortNo>(i & 63)};
    table.insert(rec);
  }

  std::size_t found = 0;
  for (std::size_t i = 0; i < records; ++i) {
    found += table.find(topo::fleet_mac(static_cast<std::uint32_t>(i))) !=
             nullptr;
  }
  const std::vector<std::string> issues = table.audit();

  std::string s = "{\"records\": " + std::to_string(records);
  s += ", \"found\": " + std::to_string(found);
  s += ", \"audit_findings\": " + std::to_string(issues.size());
  s += "}";
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions opts = parse_harness_args(argc, argv);
  banner("Fleet scale", "generated fabrics + background load, both attacks");

  const std::size_t per_cell = opts.trial_count(4, 2);

  std::vector<Cell> cells;
  {
    Cell c;
    c.label = "fat-tree k=4 idle";
    c.gen.k = 4;
    c.background = false;
    cells.push_back(c);
    c.label = "fat-tree k=4";
    c.background = true;
    cells.push_back(c);
    c.label = "fat-tree k=4 onos";
    c.gen.k = 4;
    c.profile = ctrl::onos_profile();
    cells.push_back(c);
    c.profile.reset();
    c.label = "fat-tree k=8";
    c.gen.k = 8;
    cells.push_back(c);
    if (!opts.quick) {
      // The headline cell: 320 switches, all 1,024 generated hosts
      // tracked, background traffic on.
      c.label = "fat-tree k=16";
      c.gen.k = 16;
      cells.push_back(c);
    }
  }

  scenario::TrialRunner runner{opts.runner_options()};
  std::vector<std::unique_ptr<scenario::TrialArena>> arenas;
  arenas.reserve(runner.jobs());
  for (std::size_t w = 0; w < runner.jobs(); ++w) {
    arenas.push_back(std::make_unique<scenario::TrialArena>());
  }

  std::vector<HijackAcc> hijacks;
  std::vector<LinkAcc> links;
  std::uint64_t events = 0;
  for (const Cell& cell : cells) {
    HijackAcc h = runner.reduce(
        per_cell, [] { return HijackAcc{}; },
        [&](HijackAcc& a, std::size_t i) {
          scenario::FleetHijackConfig cfg;
          cfg.topology = cell.gen;
          cfg.seed = scenario::TrialRunner::trial_seed(42, i);
          cfg.background_on = cell.background;
          cfg.profile = cell.profile;
          cfg.settle_window = sim::Duration::seconds(3);
          cfg.check_invariants = false;
          cfg.arena = arenas[scenario::TrialRunner::worker_slot()].get();
          a.fold(scenario::run_fleet_hijack(cfg));
        },
        [](HijackAcc& total, HijackAcc&& part) { total.merge(part); });
    LinkAcc l = runner.reduce(
        per_cell, [] { return LinkAcc{}; },
        [&](LinkAcc& a, std::size_t i) {
          scenario::FleetLinkAttackConfig cfg;
          cfg.topology = cell.gen;
          cfg.kind = scenario::LinkAttackKind::ClassicRelay;
          cfg.seed = scenario::TrialRunner::trial_seed(43, i);
          cfg.background_on = cell.background;
          cfg.profile = cell.profile;
          cfg.benign_window = sim::Duration::seconds(4);
          cfg.attack_window = sim::Duration::seconds(34);
          cfg.check_invariants = false;
          cfg.arena = arenas[scenario::TrialRunner::worker_slot()].get();
          a.fold(scenario::run_fleet_link_attack(cfg));
        },
        [](LinkAcc& total, LinkAcc&& part) { total.merge(part); });
    events += h.events + l.events;
    hijacks.push_back(std::move(h));
    links.push_back(std::move(l));
  }

  Table table({"Topology", "sw", "hosts", "bg", "hijack", "p50 confirm ms",
               "link-reg", "events/trial"});
  std::string cells_json = "[";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const topo::GeneratedTopology shape = topo::generate(cells[c].gen);
    const HijackAcc& h = hijacks[c];
    const LinkAcc& l = links[c];
    const Dist& confirmed = h.dist[1];
    table.add_row(
        {cells[c].label, fmt_u(shape.switch_count()),
         fmt_u(h.hosts_tracked), cells[c].background ? "on" : "off",
         fmt_u(h.succeeded) + "/" + fmt_u(h.trials),
         confirmed.count ? fmt("%.1f", confirmed.p50.value()) : "-",
         fmt_u(l.registered) + "/" + fmt_u(l.trials),
         fmt_u((h.events + l.events) / (h.trials + l.trials))});

    if (c != 0) cells_json += ", ";
    cells_json += "{\"label\": \"" + cells[c].label + "\"";
    cells_json += ", \"family\": \"" + shape.family + "\"";
    cells_json += ", \"k\": " + std::to_string(cells[c].gen.k);
    cells_json += ", \"switches\": " + std::to_string(shape.switch_count());
    cells_json += ", \"background\": ";
    cells_json += cells[c].background ? "true" : "false";
    cells_json += ", \"profile\": \"" +
                  (cells[c].profile ? cells[c].profile->name
                                    : std::string{"Floodlight"}) +
                  "\"";
    cells_json += ", \"hijack\": {\"trials\": " + std::to_string(h.trials);
    cells_json += ", \"succeeded\": " + std::to_string(h.succeeded);
    cells_json += ", \"hosts_tracked\": " + std::to_string(h.hosts_tracked);
    cells_json += ", \"events\": " + std::to_string(h.events);
    cells_json += ", \"bg_flows\": " + std::to_string(h.bg_flows);
    cells_json += ", \"bg_migrations\": " + std::to_string(h.bg_migrations);
    cells_json += ", \"windows\": {";
    for (std::size_t m = 0; m < kNMetrics; ++m) {
      if (m != 0) cells_json += ", ";
      cells_json += std::string("\"") + kMetrics[m].key +
                    "\": " + dist_json(h.dist[m]);
    }
    cells_json += "}}";
    cells_json += ", \"link_attack\": {\"trials\": " + std::to_string(l.trials);
    cells_json += ", \"registered\": " + std::to_string(l.registered);
    cells_json += ", \"mitm\": " + std::to_string(l.mitm);
    cells_json += ", \"hosts_tracked\": " + std::to_string(l.hosts_tracked);
    cells_json += ", \"events\": " + std::to_string(l.events);
    cells_json += ", \"bg_flows\": " + std::to_string(l.bg_flows);
    cells_json += "}}";
  }
  cells_json += "]";
  table.print();

  std::printf(
      "\nEach cell: %zu hijack + %zu link-fabrication trials on a live\n"
      "generated fabric (full population tracked by the HTS,\n"
      "background flows/ARP churn/mobility on unless 'idle'), streamed\n"
      "through per-worker arenas; byte-identical at any --jobs.\n",
      per_cell, per_cell);

  const std::string host_table_json =
      host_table_pass(opts.quick ? 200'000 : 1'000'000);

  BenchResult result;
  result.bench = "fleet";
  result.trials = per_cell * 2 * cells.size();
  result.base_seed = 42;
  result.jobs = runner.jobs();
  result.events = events;
  result.extra_key = "fleet";
  result.extra_json = "{\"trials_per_cell\": " + std::to_string(per_cell) +
                      ", \"host_table\": " + host_table_json +
                      ", \"cells\": " + cells_json + "}";
  if (opts.obs) {
    // Observed re-run of the first cell's hijack trial (seed 42), kept
    // out of the sweep above. Its metrics land under "obs" in
    // the JSON result; --obs-out and --trace-out export the snapshot /
    // trace.
    obs::Observability obs;
    scenario::FleetHijackConfig cfg;
    cfg.topology = cells.front().gen;
    cfg.seed = scenario::TrialRunner::trial_seed(42, 0);
    cfg.background_on = cells.front().background;
    cfg.profile = cells.front().profile;
    cfg.settle_window = sim::Duration::seconds(3);
    cfg.check_invariants = false;
    cfg.obs = &obs;
    (void)scenario::run_fleet_hijack(cfg);
    result.obs_metrics_json = obs.metrics_json(obs.final_time());
    if (!write_obs_artifacts(opts, obs)) return 1;
  }
  return report_bench(opts, result) ? 0 : 1;
}
