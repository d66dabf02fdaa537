#include "bench_harness.hpp"

#include <cstdio>
#include <iterator>

#include "obs/observability.hpp"
#include "scenario/trial_runner.hpp"
#include "sim/thread_pool.hpp"

namespace tmg::bench {

HarnessOptions parse_harness_args(int argc, char** argv,
                                  std::vector<scenario::CliFlag> extra) {
  HarnessOptions opts;
  std::vector<scenario::CliFlag> flags = {
      scenario::cli_count("--trials", opts.trials, "0 = bench default"),
      scenario::cli_count("--jobs", opts.jobs, "0 = hardware default"),
      scenario::cli_switch("--quick", opts.quick),
      scenario::cli_text("--json", "PATH", opts.json_path),
      scenario::cli_switch("--obs", opts.obs),
      scenario::cli_text("--obs-out", "PATH", opts.obs_out_path),
      scenario::cli_text("--trace-out", "PATH", opts.trace_out_path),
      scenario::cli_switch("--legacy-runner", opts.legacy_runner),
  };
  flags.insert(flags.end(), std::make_move_iterator(extra.begin()),
               std::make_move_iterator(extra.end()));
  scenario::parse_cli(argc, argv, flags);
  // The export flags only make sense with the observability layer
  // attached, so they imply --obs.
  if (!opts.obs_out_path.empty() || !opts.trace_out_path.empty()) {
    opts.obs = true;
  }
  return opts;
}

bool write_obs_artifacts(const HarnessOptions& opts, obs::Observability& obs) {
  bool ok = true;
  if (!opts.obs_out_path.empty()) {
    if (!obs::write_text_file(opts.obs_out_path,
                              obs.metrics_json(obs.final_time()))) {
      std::fprintf(stderr, "[bench] cannot write %s\n",
                   opts.obs_out_path.c_str());
      ok = false;
    }
  }
  if (!opts.trace_out_path.empty()) {
    if (!obs::write_text_file(opts.trace_out_path, obs.trace().to_jsonl())) {
      std::fprintf(stderr, "[bench] cannot write %s\n",
                   opts.trace_out_path.c_str());
      ok = false;
    }
  }
  return ok;
}

bool report_bench(const HarnessOptions& opts, BenchResult result) {
  if (result.jobs == 0) result.jobs = sim::ThreadPool::hardware_jobs();
  std::printf("\n[bench] %s: trials=%zu base_seed=%llu jobs=%zu events=%llu\n",
              result.bench.c_str(), result.trials,
              static_cast<unsigned long long>(result.base_seed), result.jobs,
              static_cast<unsigned long long>(result.events));
  if (opts.json_path.empty()) return true;

  std::FILE* f = std::fopen(opts.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", opts.json_path.c_str());
    return false;
  }
  // Contract: {trials, base_seed, jobs} are always present — they are
  // the reproduction key for any bench artifact.
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"%s\",\n"
               "  \"trials\": %zu,\n"
               "  \"base_seed\": %llu,\n"
               "  \"jobs\": %zu,\n"
               "  \"events\": %llu",
               result.bench.c_str(), result.trials,
               static_cast<unsigned long long>(result.base_seed), result.jobs,
               static_cast<unsigned long long>(result.events));
  if (!result.obs_metrics_json.empty()) {
    std::string snap = result.obs_metrics_json;
    while (!snap.empty() && snap.back() == '\n') snap.pop_back();
    std::fprintf(f, ",\n  \"obs\": %s", snap.c_str());
  }
  if (!result.extra_key.empty() && !result.extra_json.empty()) {
    std::fprintf(f, ",\n  \"%s\": %s", result.extra_key.c_str(),
                 result.extra_json.c_str());
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace tmg::bench
