// Sec. IV-B2 — Downtime window duration vs. usable impersonation time.
//
// From server-maintenance hours down to live-migration seconds: how
// much of the victim's downtime window does the attacker get to own,
// and does the hijack still win as the window shrinks toward the
// attack's own end-to-end latency?
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
  banner("Sec. IV-B2", "Downtime window vs. hijack viability");

  struct Row {
    const char* scenario;
    sim::Duration downtime;
    bool nmap;
  };
  const Row rows[] = {
      {"live migration (fast)", sim::Duration::millis(700), false},
      {"live migration (typical)", 2_s, false},
      {"live migration (typical), nmap probing", 2_s, true},
      {"VM restart", 10_s, false},
      {"server patching", 60_s, false},
  };
  constexpr std::size_t kRows = 5;

  const std::size_t n = opts.trial_count(10, 3);  // seeds per scenario row

  scenario::TrialRunner runner{opts.runner_options()};
  const auto outcomes =
      runner.map(kRows * n, [&](std::size_t i) -> scenario::HijackOutcome {
        const Row& row = rows[i / n];
        scenario::HijackConfig cfg;
        cfg.suite = scenario::DefenseSuite::TopoGuardAndSphinx;
        cfg.seed = 300 + (i % n);
        cfg.victim_downtime = row.downtime;
        cfg.nmap_overhead = row.nmap;
        cfg.confirm_failures = row.nmap ? 2 : 1;
        return scenario::run_hijack(cfg);
      });

  std::uint64_t events = 0;
  Table table({"Scenario", "Window", "Hijacks won", "Mean claim (ms)",
               "Usable impersonation (% of window)"});
  for (std::size_t r = 0; r < kRows; ++r) {
    const Row& row = rows[r];
    std::size_t won = 0, claimed = 0;
    double claim_sum = 0.0, usable_sum = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      const auto& out = outcomes[r * n + s];
      if (out.hijack_succeeded) ++won;
      if (out.down_to_confirmed_ms) {
        ++claimed;
        claim_sum += *out.down_to_confirmed_ms;
        const double window_ms = row.downtime.to_millis_f();
        usable_sum +=
            100.0 * (window_ms - *out.down_to_confirmed_ms) / window_ms;
      }
      events += out.events_executed;
    }
    table.add_row({row.scenario,
                   to_string(row.downtime),
                   fmt_u(won) + "/" + fmt_u(n),
                   claimed ? fmt("%.0f", claim_sum / claimed) : "-",
                   claimed ? fmt("%.0f %%", usable_sum / claimed) : "-"});
  }
  table.print();

  std::printf(
      "\nExpected shape (paper Sec. IV-B2/V-B): raw ARP probing claims the\n"
      "identity in well under 100 ms, leaving >90%% of even a 1-2 s live-\n"
      "migration window; nmap-engine probing (~0.5 s) still fits typical\n"
      "windows; for maintenance-scale windows the attack is effectively\n"
      "instantaneous.\n");

  BenchResult result;
  result.bench = "downtime_window";
  result.trials = kRows * n;
  result.base_seed = 300;
  result.jobs = runner.jobs();
  result.events = events;
  return report_bench(opts, result) ? 0 : 1;
}
