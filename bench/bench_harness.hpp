// Benchmark harness: shared CLI flags and the BENCH.json emitter used by
// tools/run_bench.py.
//
// Every trial-looping bench accepts the flags below, each as `--flag
// VALUE` or `--flag=VALUE`, plus any flags the bench declares itself.
// Anything else exits 2 and lists the valid flags (scenario/cli.hpp):
//   --trials N      trial count (0 = bench default)
//   --jobs N        worker threads (default: hardware concurrency;
//                   --jobs 1 = the chunked serial path, no threads)
//   --quick         shrink the workload for smoke runs
//   --json PATH     write a one-object JSON result file
//   --obs           attach the observability layer to a representative
//                   trial and embed its metrics snapshot under "obs" in
//                   the JSON result (benches that support it)
//   --obs-out PATH  also write that metrics snapshot to PATH as a
//                   standalone JSON file (implies --obs)
//   --trace-out PATH
//                   also write the observed trial's trace log to PATH as
//                   JSONL (implies --obs); tools/check_trace_schema.py
//                   validates it and tools/render_timeline.py renders it.
//   --legacy-runner schedule one pool task per trial (the pre-chunking
//                   TrialRunner path) instead of contiguous chunks.
//                   Results are identical; tools/run_bench.py diffs
//                   them. The flag goes once perfbench's runner stops
//                   aggregate-initialising TrialRunnerOptions.
//
// Nothing here reads a host clock: every field a bench reports is
// simulated and byte-identical across --jobs values apart from "jobs"
// itself. Host time is measured only by perfbench/ and, for the paper's
// Table II, by google-benchmark in bench_table2_overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/cli.hpp"
#include "scenario/trial_runner.hpp"

namespace tmg::obs {
class Observability;
}  // namespace tmg::obs

namespace tmg::bench {

struct HarnessOptions {
  std::size_t trials = 0;  // 0 = use the bench's default
  std::size_t jobs = 0;    // 0 = hardware concurrency
  bool quick = false;
  bool obs = false;            // --obs: collect an observability snapshot
  bool legacy_runner = false;  // --legacy-runner: per-trial task baseline
  std::string json_path;
  std::string obs_out_path;    // --obs-out: metrics snapshot file
  std::string trace_out_path;  // --trace-out: trace JSONL export file

  /// TrialRunner options for this bench invocation.
  [[nodiscard]] scenario::TrialRunnerOptions runner_options() const {
    return {jobs, legacy_runner};
  }

  /// Trial count to actually run: --trials if given, else the quick or
  /// full default.
  [[nodiscard]] std::size_t trial_count(std::size_t full_default,
                                        std::size_t quick_default) const {
    if (trials != 0) return trials;
    return quick ? quick_default : full_default;
  }
};

/// Parse the shared flags plus the bench's own `extra` flags. Any other
/// argument, or a malformed value, exits 2.
HarnessOptions parse_harness_args(int argc, char** argv,
                                  std::vector<scenario::CliFlag> extra = {});

/// Write the --obs-out / --trace-out artifacts from an observed run:
/// the final-time metrics snapshot and the trace JSONL export. No-op
/// for paths not requested; returns false if any write failed (after
/// printing a diagnostic).
bool write_obs_artifacts(const HarnessOptions& opts, obs::Observability& obs);

struct BenchResult {
  std::string bench;           // short workload id, e.g. "attack_matrix"
  std::size_t trials = 0;      // trials executed
  std::uint64_t base_seed = 0; // seed the per-trial seeds derive from
  std::size_t jobs = 0;        // worker threads used
  std::uint64_t events = 0;    // simulator events executed, all trials
  /// Optional observability snapshot (obs::Observability::metrics_json):
  /// when non-empty it is embedded verbatim under the "obs" key.
  std::string obs_metrics_json;
  /// Optional bench-specific payload: when both are non-empty,
  /// `extra_json` (a complete JSON value) is embedded verbatim under
  /// `extra_key`. bench_montecarlo puts its quantile tables here; the
  /// payload must be deterministic so tools/run_bench.py can diff it
  /// across --jobs values.
  std::string extra_key;
  std::string extra_json;
};

/// Print a one-line [bench] footer and, when --json was given, write the
/// result as a single JSON object. The {trials, base_seed, jobs} triple
/// is always present (the reproduction key), next to {bench, events}
/// and the optional "obs" snapshot. Returns false if the file could not
/// be written.
bool report_bench(const HarnessOptions& opts, BenchResult result);

}  // namespace tmg::bench
