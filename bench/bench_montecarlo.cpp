// Monte-Carlo race-window distributions (Figs. 5-8 at scale).
//
// The paper reports the port-probing race windows as small-sample means;
// this bench maps the full *distributions* — median and tail quantiles
// of the four victim-down-to-X windows — across controller profile
// (Table III) x defense suite, at 10^4-10^6 seeded trials per cell.
//
// Scale machinery (DESIGN.md §7d): trials stream through
// TrialRunner::reduce() into per-chunk stats::StreamingQuantile
// estimators — memory stays O(chunks), never O(trials) — and every
// worker runs its trials inside a per-worker TrialArena, so a sweep
// reuses one warm event-loop slab per worker instead of reallocating
// per trial. Chunk boundaries and the merge order depend only on the
// trial count, so the quantile table (stdout and --json) is
// byte-identical for every --jobs value; CI diffs jobs 1 vs 8.
//
//   --trials N   trials per cell (default 1000; --quick 50)
//   --jobs N     worker threads (0 = hardware)
//   --json PATH  bench record + "montecarlo" quantile tables
//   --obs        observed re-run of a representative trial ("obs" key)
//   --obs-out / --trace-out
//                export that run's metrics JSON / trace JSONL to files
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_harness.hpp"
#include "bench_util.hpp"
#include "ctrl/profiles.hpp"
#include "obs/observability.hpp"
#include "scenario/experiments.hpp"
#include "scenario/trial_arena.hpp"
#include "scenario/trial_runner.hpp"
#include "stats/streaming_quantile.hpp"

using namespace tmg;
using namespace tmg::bench;

namespace {

// The four race windows of Figs. 5-8, pulled out of one hijack outcome.
struct Metric {
  const char* key;    // JSON key
  const char* label;  // table label
  std::optional<double> (*get)(const scenario::HijackOutcome&);
};

const Metric kMetrics[] = {
    {"iface_up_ms", "Fig5 iface-up",
     [](const scenario::HijackOutcome& o) { return o.down_to_iface_up_ms; }},
    {"confirmed_ms", "Fig6 confirmed",
     [](const scenario::HijackOutcome& o) { return o.down_to_confirmed_ms; }},
    {"final_probe_start_ms", "Fig7 probe-start",
     [](const scenario::HijackOutcome& o) {
       return o.down_to_final_probe_start_ms;
     }},
    {"declared_down_ms", "Fig8 declared-down",
     [](const scenario::HijackOutcome& o) {
       return o.down_to_declared_down_ms;
     }},
};
constexpr std::size_t kNMetrics = sizeof(kMetrics) / sizeof(kMetrics[0]);

// Streaming distribution of one metric: median + tails, no sample
// vector. Mean/min/max ride along exactly (they are order-independent).
struct Dist {
  std::uint64_t count = 0;
  double sum = 0.0;
  stats::StreamingQuantile p50{0.50};
  stats::StreamingQuantile p90{0.90};
  stats::StreamingQuantile p99{0.99};

  void fold(double x) {
    ++count;
    sum += x;
    p50.add(x);
    p90.add(x);
    p99.add(x);
  }
  void merge(const Dist& other) {
    count += other.count;
    sum += other.sum;
    p50.merge(other.p50);
    p90.merge(other.p90);
    p99.merge(other.p99);
  }
};

// Per-cell accumulator: one Dist per metric plus the success/event
// counters. reduce() makes one per chunk and merges in chunk order.
struct CellAcc {
  std::uint64_t trials = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t events = 0;
  Dist dist[kNMetrics];

  void fold(const scenario::HijackOutcome& out) {
    ++trials;
    if (out.hijack_succeeded) ++succeeded;
    events += out.events_executed;
    for (std::size_t m = 0; m < kNMetrics; ++m) {
      if (const auto v = kMetrics[m].get(out)) dist[m].fold(*v);
    }
  }
  void merge(const CellAcc& other) {
    trials += other.trials;
    succeeded += other.succeeded;
    events += other.events;
    for (std::size_t m = 0; m < kNMetrics; ++m) dist[m].merge(other.dist[m]);
  }
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
  s += ", \"p99\": " + fmt_d(d.p99.value());
  s += ", \"max\": " + fmt_d(d.p50.max());
  s += std::string(", \"exact\": ") + (d.p50.exact() ? "true" : "false");
  s += "}";
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions opts = parse_harness_args(argc, argv);
  banner("Figs. 5-8 @ scale", "Monte-Carlo race-window distributions");

  const std::size_t per_cell = opts.trial_count(1000, 50);
  const std::vector<ctrl::ControllerProfile> profiles = ctrl::all_profiles();
  const scenario::DefenseSuite suites[] = {
      scenario::DefenseSuite::None,
      scenario::DefenseSuite::TopoGuard,
      scenario::DefenseSuite::TopoGuardAndSphinx,
  };
  const std::size_t n_cells =
      profiles.size() * (sizeof(suites) / sizeof(suites[0]));

  scenario::TrialRunner runner{opts.runner_options()};
  // One warm arena per worker slot, shared by every cell of the sweep.
  std::vector<std::unique_ptr<scenario::TrialArena>> arenas;
  arenas.reserve(runner.jobs());
  for (std::size_t w = 0; w < runner.jobs(); ++w) {
    arenas.push_back(std::make_unique<scenario::TrialArena>());
  }

  std::vector<CellAcc> cells;
  cells.reserve(n_cells);
  std::uint64_t events = 0;
  for (const ctrl::ControllerProfile& profile : profiles) {
    for (const scenario::DefenseSuite suite : suites) {
      CellAcc acc = runner.reduce(
          per_cell, [] { return CellAcc{}; },
          [&](CellAcc& a, std::size_t i) {
            scenario::HijackConfig cfg;
            cfg.suite = suite;
            cfg.profile = profile;
            cfg.seed = scenario::TrialRunner::trial_seed(42, i);
            cfg.check_invariants = false;
            cfg.arena = arenas[scenario::TrialRunner::worker_slot()].get();
            a.fold(scenario::run_hijack(cfg));
          },
          [](CellAcc& total, CellAcc&& part) { total.merge(part); });
      events += acc.events;
      cells.push_back(std::move(acc));
    }
  }

  // Quantile tables: one row per (cell, metric). Every number here is
  // deterministic — identical for any --jobs — so the full stdout
  // (minus the [bench] footer) doubles as a determinism gate.
  Table table({"Controller", "Defense", "Window", "n", "mean", "p50", "p90",
               "p99", "max"});
  std::string cells_json = "[";
  std::size_t cell_idx = 0;
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    for (std::size_t s = 0; s < sizeof(suites) / sizeof(suites[0]); ++s) {
      const CellAcc& acc = cells[cell_idx];
      for (std::size_t m = 0; m < kNMetrics; ++m) {
        const Dist& d = acc.dist[m];
        if (d.count == 0) {
          table.add_row({profiles[p].name, scenario::to_string(suites[s]),
                         kMetrics[m].label, "0", "-", "-", "-", "-", "-"});
          continue;
        }
        const double mean = d.sum / static_cast<double>(d.count);
        table.add_row({profiles[p].name, scenario::to_string(suites[s]),
                       kMetrics[m].label, fmt_u(d.count),
                       fmt("%.2f", mean), fmt("%.2f", d.p50.value()),
                       fmt("%.2f", d.p90.value()),
                       fmt("%.2f", d.p99.value()),
                       fmt("%.2f", d.p50.max())});
      }
      if (cell_idx != 0) cells_json += ", ";
      cells_json += "{\"controller\": \"" + profiles[p].name + "\"";
      cells_json += ", \"defense\": \"";
      cells_json += scenario::to_string(suites[s]);
      cells_json += "\", \"trials\": " + std::to_string(acc.trials);
      cells_json += ", \"succeeded\": " + std::to_string(acc.succeeded);
      cells_json += ", \"windows\": {";
      for (std::size_t m = 0; m < kNMetrics; ++m) {
        if (m != 0) cells_json += ", ";
        cells_json += std::string("\"") + kMetrics[m].key +
                      "\": " + dist_json(acc.dist[m]);
      }
      cells_json += "}}";
      ++cell_idx;
    }
  }
  cells_json += "]";
  table.print();

  std::printf(
      "\nEach cell is %zu seeded hijack trials streamed through P2\n"
      "quantile estimators (exact below 512 samples/chunk) inside\n"
      "per-worker arenas; the table is byte-identical at any --jobs.\n",
      per_cell);

  BenchResult result;
  result.bench = "montecarlo";
  result.trials = per_cell * n_cells;
  result.base_seed = 42;
  result.jobs = runner.jobs();
  result.events = events;
  result.extra_key = "montecarlo";
  result.extra_json = "{\"trials_per_cell\": " + std::to_string(per_cell) +
                      ", \"cells\": " + cells_json + "}";
  if (opts.obs) {
    // Observed re-run of one representative trial (first profile,
    // undefended, seed 42), kept out of the sweep above. Its
    // metrics land under "obs" in the JSON result; --obs-out and
    // --trace-out export the snapshot / trace.
    obs::Observability obs;
    scenario::HijackConfig cfg;
    cfg.suite = scenario::DefenseSuite::None;
    cfg.profile = profiles.front();
    cfg.seed = 42;
    cfg.check_invariants = false;
    cfg.obs = &obs;
    (void)scenario::run_hijack(cfg);
    result.obs_metrics_json = obs.metrics_json(obs.final_time());
    if (!write_obs_artifacts(opts, obs)) return 1;
  }
  return report_bench(opts, result) ? 0 : 1;
}
