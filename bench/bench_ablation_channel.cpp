// Ablation — relay channel latency vs. LLI detectability (the paper's
// scope footnote: "a purely hardware-based device which uses
// point-to-point laser communications is out of scope").
//
// Sweeps the out-of-band channel's one-way latency and encode/decode
// overhead, and measures how much of the relayed-LLDP traffic the LLI
// flags. Somewhere below the genuine links' jitter envelope, latency
// evidence disappears — quantifying exactly what "out of scope" costs.
#include <cstdio>

#include "bench_harness.hpp"
#include "bench_util.hpp"
#include "scenario/experiments.hpp"
#include "scenario/trial_runner.hpp"

using namespace tmg;
using namespace tmg::bench;
using namespace tmg::sim::literals;

int main(int argc, char** argv) {
  const HarnessOptions opts = parse_harness_args(argc, argv);
  banner("Ablation",
         "Relay channel latency vs. LLI detection (Fig. 9 testbed)");

  struct Sweep {
    const char* label;
    double latency_ms;
    double codec_ms;
  };
  const Sweep sweeps[] = {
      {"802.11 hop, cheap radios (paper)", 10.0, 1.0},
      {"802.11 hop, tuned", 5.0, 0.5},
      {"wired side channel", 2.0, 0.3},
      {"line-rate FPGA relay", 0.5, 0.05},
      {"point-to-point laser (scoped out)", 0.05, 0.005},
  };
  constexpr std::size_t kSweeps = 5;

  scenario::TrialRunner runner{opts.runner_options()};
  const auto series_by_sweep = runner.map(kSweeps, [&](std::size_t i) {
    const Sweep& sweep = sweeps[i];
    scenario::LliExperimentConfig cfg;
    cfg.seed = 42;
    cfg.attack_window = opts.quick ? 30_s : 120_s;
    cfg.channel.latency = sim::Duration::from_millis_f(sweep.latency_ms);
    cfg.channel.codec_overhead =
        sim::Duration::from_millis_f(sweep.codec_ms);
    cfg.channel.jitter = sim::Duration::from_millis_f(sweep.latency_ms / 20);
    return scenario::run_lli_experiment(cfg);
  });

  std::uint64_t events = 0;
  Table table({"Channel", "One-way + codec (ms)", "Relay attempts",
               "Flagged", "Link ever registered"});
  for (std::size_t i = 0; i < kSweeps; ++i) {
    const auto& series = series_by_sweep[i];
    table.add_row({sweeps[i].label,
                   fmt("%.2f", sweeps[i].latency_ms + sweeps[i].codec_ms),
                   fmt_u(series.fake_attempts),
                   fmt_u(series.fake_detections),
                   yes_no(series.fake_link_ever_registered)});
    events += series.events_executed;
  }
  table.print();

  std::printf(
      "\nExpected shape: the wireless-class relays the paper targets add\n"
      "latency far above the ~6-7 ms IQR fence and are always flagged;\n"
      "once the relay's added delay sinks inside the genuine links'\n"
      "jitter envelope, the LLI goes blind — which is precisely why the\n"
      "paper scopes hardware-grade relays out and argues for *active*\n"
      "defenses (Sec. VI footnote, Sec. X).\n");

  BenchResult result;
  result.bench = "ablation_channel";
  result.trials = kSweeps;
  result.base_seed = 42;
  result.jobs = runner.jobs();
  result.events = events;
  return report_bench(opts, result) ? 0 : 1;
}
