// Shared driver for the hijack timing figures (Figs. 5-8): run many
// seeded hijacks — fanned across worker threads by the TrialRunner,
// results merged in trial-index order — and collect one timeline metric
// from each.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "bench_harness.hpp"
#include "bench_util.hpp"
#include "scenario/experiments.hpp"
#include "scenario/trial_arena.hpp"
#include "scenario/trial_runner.hpp"
#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"

namespace tmg::bench {

struct HijackSeries {
  std::vector<double> values;
  std::size_t runs = 0;
  std::size_t succeeded = 0;
  std::uint64_t events = 0;  // simulator events across all trials
};

/// @param nmap_regime  true: nmap engine overhead + 2-scan confirmation
///        (the paper's Figs. 5-6 measurement regime); false: raw probe
///        exchanges with a single 35 ms timeout (Figs. 7-8 regime).
/// @param runner_opts  worker count + scheduler selection (see
///        scenario::TrialRunnerOptions).
inline HijackSeries collect_hijack_metric(
    std::size_t n, bool nmap_regime,
    const std::function<std::optional<double>(
        const scenario::HijackOutcome&)>& metric,
    scenario::TrialRunnerOptions runner_opts = {}) {
  HijackSeries series;
  series.runs = n;
  scenario::TrialRunner runner{runner_opts};
  // Per-worker warm arenas; the invariant battery stays off in benches
  // (read-only hook — wall clock only). Both are observationally
  // neutral, so figures match their pre-arena output exactly.
  std::vector<std::unique_ptr<scenario::TrialArena>> arenas;
  for (std::size_t w = 0; w < runner.jobs(); ++w) {
    arenas.push_back(std::make_unique<scenario::TrialArena>());
  }
  const auto outcomes =
      runner.map(n, [&](std::size_t i) -> scenario::HijackOutcome {
        scenario::HijackConfig cfg;
        cfg.suite = scenario::DefenseSuite::TopoGuard;
        cfg.seed = 1000 + i;
        cfg.nmap_overhead = nmap_regime;
        cfg.confirm_failures = nmap_regime ? 2 : 1;
        cfg.check_invariants = false;
        cfg.arena = arenas[scenario::TrialRunner::worker_slot()].get();
        return scenario::run_hijack(cfg);
      });
  // Aggregate on this thread, in trial-index order: identical output for
  // every --jobs value.
  for (const auto& out : outcomes) {
    if (out.hijack_succeeded) ++series.succeeded;
    if (const auto v = metric(out)) series.values.push_back(*v);
    series.events += out.events_executed;
  }
  return series;
}

inline void print_series(const HijackSeries& series, const char* unit,
                         double hist_lo, double hist_hi) {
  const auto s = stats::summarize(series.values);
  section("Summary");
  std::printf("  runs: %zu, hijacks succeeded: %zu, samples: %zu\n",
              series.runs, series.succeeded, series.values.size());
  std::printf("  mean:   %.2f %s\n", s.mean, unit);
  std::printf("  median: %.2f %s\n", s.median, unit);
  std::printf("  stddev: %.2f %s\n", s.stddev, unit);
  std::printf("  min:    %.2f %s\n", s.min, unit);
  std::printf("  max:    %.2f %s\n", s.max, unit);
  section("Histogram");
  stats::Histogram hist{hist_lo, hist_hi, 20};
  hist.add_all(series.values);
  std::printf("%s", hist.render(48, unit).c_str());
  section("CSV (bin_lo,bin_hi,count)");
  std::printf("%s", hist.to_csv().c_str());
}

/// Full driver for one hijack-timing figure: print the banner, run the
/// series (`full_default` trials; 25 under --quick), print, report JSON.
/// Flags are parsed first, so a bad command line prints nothing.
inline int run_hijack_figure(int argc, char** argv, const char* figure,
                             const char* title, const char* bench_id,
                             std::size_t full_default, bool nmap_regime,
                             const char* unit, double hist_lo, double hist_hi,
                             const std::function<std::optional<double>(
                                 const scenario::HijackOutcome&)>& metric) {
  const HarnessOptions opts = parse_harness_args(argc, argv);
  banner(figure, title);
  const std::size_t n = opts.trial_count(full_default, 25);
  const auto series =
      collect_hijack_metric(n, nmap_regime, metric, opts.runner_options());
  print_series(series, unit, hist_lo, hist_hi);
  BenchResult result;
  result.bench = bench_id;
  result.trials = n;
  result.base_seed = 1000;
  result.jobs = scenario::TrialRunner{opts.runner_options()}.jobs();
  result.events = series.events;
  return report_bench(opts, result) ? 0 : 1;
}

}  // namespace tmg::bench
