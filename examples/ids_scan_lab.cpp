// IDS scan lab (paper Table I + Sec. V-B2).
//
// An attacker sweeps liveness-probe types and rates against a victim
// while a Snort-surrogate IDS taps the victim's access link: which
// reconnaissance styles stay under the radar?
#include <cstdio>

#include "example_util.hpp"
#include "scenario/experiments.hpp"
#include "scenario/trial_runner.hpp"

using namespace tmg;
using namespace tmg::sim::literals;
using attack::ProbeType;

int main(int argc, char** argv) {
  // The probe-timing and scan drivers own their controllers and take
  // no controller profile.
  const examples::ExampleArgs args =
      examples::parse_example_args(argc, argv, {.jobs = true});
  const bool check = args.check;
  // --jobs N fans the independent measurements below across N worker
  // threads; output is identical for every N (see DESIGN.md §7).
  scenario::TrialRunner runner{{args.jobs}};
  std::printf("== Scan stealth lab ==\n\n");
  std::printf(
      "The port-probing attacker must poll the victim frequently enough\n"
      "to catch the migration window, without tripping the IDS. Paper\n"
      "Table I ranks the options; this reproduces the measurements.\n\n");

  const ProbeType timing_types[] = {ProbeType::IcmpPing, ProbeType::TcpSyn,
                                    ProbeType::ArpPing,
                                    ProbeType::TcpIdleScan};
  const auto rows = runner.map(4, [&](std::size_t i) {
    return scenario::measure_probe_timing(timing_types[i], 200, 1);
  });
  std::printf("%-14s %-10s %-28s\n", "Probe", "Stealth", "Per-scan timing");
  for (const auto& row : rows) {
    std::printf("%-14s %-10s %s\n", attack::to_string(row.type),
                attack::to_string(row.stealth),
                stats::format_mean_pm(row.tool_overhead_ms, "ms").c_str());
  }

  std::printf("\nIDS verdicts at the attack rate (20 probes/s, 30 s):\n");
  const ProbeType scan_types[] = {ProbeType::IcmpPing, ProbeType::TcpSyn,
                                  ProbeType::ArpPing};
  const auto verdicts = runner.map(3, [&](std::size_t i) {
    return scenario::run_scan_detection(scan_types[i], 20.0, 30_s, 1);
  });
  unsigned long long sweeps = 0;
  unsigned long long violations = 0;
  for (const auto& r : verdicts) {
    std::printf("  %-14s %4llu probes -> %zu alerts (%s)\n",
                attack::to_string(r.type),
                static_cast<unsigned long long>(r.probes_sent), r.ids_alerts,
                r.detected() ? "DETECTED" : "undetected");
    sweeps += r.invariant_sweeps;
    violations += r.invariant_violations;
  }
  if (check) examples::print_check_summary(sweeps, violations);
  if (!verdicts.empty()) {
    examples::print_pipeline_stats(verdicts.front().pipeline_stats, args);
  }

  // --obs-out/--trace-out: re-run the attack's chosen probe type (ARP)
  // observed and export the lab's metrics and span trace.
  if (args.obs_enabled()) {
    const auto obs = examples::make_observability(args);
    const auto observed = scenario::run_scan_detection(
        ProbeType::ArpPing, 20.0, 30_s, 1, obs.get());
    std::printf("\n[obs] re-ran the ARP scan observed (%llu probes)\n",
                static_cast<unsigned long long>(observed.probes_sent));
    if (!examples::export_observability(obs.get(), obs->final_time(), args)) {
      return 1;
    }
  }

  std::printf(
      "\nConclusion (paper Sec. IV-B1): ARP pings — fast, same-subnet,\n"
      "and invisible to Snort/Bro rulesets — are the attack's choice.\n");
  return 0;
}
