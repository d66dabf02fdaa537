// Fig. 13 — TOPOGUARD+ alerts for anomalous link latencies (out-of-band
// port amnesia / link tampering detected by the LLI).
//
// Launches the CMM-evasive out-of-band attack against TOPOGUARD+ and
// prints the LLI alert lines, mirroring the paper's console capture
// ("link delay is abnormal. delay:22ms, threshold:14ms").
#include <cstdio>

#include "bench_util.hpp"
#include "scenario/cli.hpp"
#include "scenario/experiments.hpp"

using namespace tmg;
using namespace tmg::bench;
using namespace tmg::sim::literals;

int main(int argc, char** argv) {
  scenario::parse_cli(argc, argv, {});
  banner("Fig. 13", "TOPOGUARD+ alerts: anomalous link latencies");

  scenario::LliExperimentConfig cfg;
  cfg.benign_window = 60_s;
  cfg.attack_window = 120_s;
  const auto series = scenario::run_lli_experiment(cfg);

  section("Alert lines (LLI)");
  for (const auto& p : series.points) {
    if (!p.flagged) continue;
    std::printf(
        "[%8.3fs] ERROR [LinkDiscoveryManager] Detected suspicious link "
        "discovery: an abnormal delay during LLDP propagation\n",
        p.t_s);
    std::printf(
        "[%8.3fs] ERROR [LinkDiscoveryManager] link delay is abnormal. "
        "delay:%.0fms, threshold:%.0fms (%s)\n",
        p.t_s, p.latency_ms, p.threshold_ms.value_or(0.0), p.link.c_str());
  }

  section("Outcome");
  std::printf("  fabricated-link attempts: %zu, flagged: %zu\n",
              series.fake_attempts, series.fake_detections);
  std::printf("  fabricated link ever registered: %s\n",
              yes_no(series.fake_link_ever_registered).c_str());
  return 0;
}
