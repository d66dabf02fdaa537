// Fig. 10 — The latency of switch internal links.
//
// Runs the Fig. 9 testbed under TOPOGUARD+ with no attack and reports
// the LLI's per-link latency measurements: ~5 ms per link with
// occasional micro-bursts toward ~12 ms, exactly the calibration data
// the detection threshold is computed from.
#include <cstdio>

#include "bench_util.hpp"
#include "scenario/cli.hpp"
#include "scenario/experiments.hpp"
#include "stats/histogram.hpp"

using namespace tmg;
using namespace tmg::bench;
using namespace tmg::sim::literals;

int main(int argc, char** argv) {
  scenario::parse_cli(argc, argv, {});
  banner("Fig. 10", "The latency of switch internal links");

  scenario::LliExperimentConfig cfg;
  cfg.launch_attack = false;
  cfg.benign_window = 60_s;
  cfg.attack_window = 330_s;  // ~100 measurements per link at 15s rounds
  const auto series = scenario::run_lli_experiment(cfg);

  Table table({"Link", "Samples", "Mean (ms)", "Median", "p95", "Max"});
  for (const auto& [link, s] : series.per_link) {
    table.add_row({link, fmt_u(s.count), fmt("%.2f", s.mean),
                   fmt("%.2f", s.median), fmt("%.2f", s.p95),
                   fmt("%.2f", s.max)});
  }
  table.print();

  section("All real-link measurements (histogram, ms)");
  stats::Histogram hist{0.0, 16.0, 16};
  for (const auto& p : series.points) {
    if (!p.fake) hist.add(p.latency_ms);
  }
  std::printf("%s", hist.render(48, "ms").c_str());

  std::printf(
      "\nPaper reference: all four switch links average ~5 ms (the\n"
      "configured wire latency), with micro-bursts to ~12 ms that the\n"
      "IQR threshold must tolerate (Sec. VII-A, VIII-A).\n");
  return 0;
}
