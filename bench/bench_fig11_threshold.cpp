// Fig. 11 — The threshold distribution with link latencies.
//
// Time series of every LLI measurement and the running Q3 + 3*IQR
// threshold. The fabricated (out-of-band relayed) link appears at
// t = 60 s after controller start, exactly as in the paper's setup, and
// every one of its measurements lands above the threshold.
#include <cstdio>

#include "bench_util.hpp"
#include "scenario/cli.hpp"
#include "scenario/experiments.hpp"

using namespace tmg;
using namespace tmg::bench;
using namespace tmg::sim::literals;

int main(int argc, char** argv) {
  scenario::parse_cli(argc, argv, {});
  banner("Fig. 11", "Threshold distribution with link latencies");

  scenario::LliExperimentConfig cfg;
  cfg.benign_window = 60_s;   // attack begins one minute after bootstrap
  cfg.attack_window = 120_s;
  const auto series = scenario::run_lli_experiment(cfg);

  section("Series (CSV: t_s,link,latency_ms,threshold_ms,flagged,fake)");
  for (const auto& p : series.points) {
    std::printf("%.3f,%s,%.3f,%s,%d,%d\n", p.t_s, p.link.c_str(),
                p.latency_ms,
                p.threshold_ms ? fmt("%.3f", *p.threshold_ms).c_str() : "NA",
                p.flagged ? 1 : 0, p.fake ? 1 : 0);
  }

  section("Outcome");
  std::printf("  fabricated-link measurements: %zu\n", series.fake_attempts);
  std::printf("  flagged as anomalous:         %zu\n",
              series.fake_detections);
  std::printf("  fabricated link ever in topology: %s\n",
              yes_no(series.fake_link_ever_registered).c_str());

  std::printf(
      "\nPaper reference: bootstrap latencies inflate the threshold\n"
      "briefly, then it converges; the relayed link's ~+11 ms stands\n"
      "clearly above it and every attempt is flagged (Sec. VII-A).\n");
  return 0;
}
