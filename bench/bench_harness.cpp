#include "bench_harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "obs/observability.hpp"
#include "scenario/trial_runner.hpp"
#include "sim/thread_pool.hpp"

namespace tmg::bench {

namespace {

/// Strict counterpart of the --jobs parsing: a malformed --trials value
/// must not silently run the bench default (strtoul would turn
/// '--trials abc' into 0 and '--trials 10x' into 10).
std::size_t parse_trials_or_die(const char* value) {
  const std::optional<std::size_t> parsed =
      scenario::parse_jobs_value(value);
  if (!parsed) {
    std::fprintf(stderr,
                 "error: invalid --trials value '%s' (expected a "
                 "non-negative integer; 0 = bench default)\n",
                 value);
    std::exit(2);
  }
  return *parsed;
}

}  // namespace

HarnessOptions parse_harness_args(int argc, char** argv) {
  HarnessOptions opts;
  opts.jobs = scenario::parse_jobs_arg(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opts.quick = true;
    } else if (std::strcmp(argv[i], "--obs") == 0) {
      opts.obs = true;
    } else if (std::strcmp(argv[i], "--legacy-runner") == 0) {
      opts.legacy_runner = true;
    } else if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
      opts.trials = parse_trials_or_die(argv[i + 1]);
    } else if (std::strncmp(argv[i], "--trials=", 9) == 0) {
      opts.trials = parse_trials_or_die(argv[i] + 9);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      opts.json_path = argv[i + 1];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      opts.json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--obs-out") == 0 && i + 1 < argc) {
      opts.obs_out_path = argv[i + 1];
    } else if (std::strncmp(argv[i], "--obs-out=", 10) == 0) {
      opts.obs_out_path = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      opts.trace_out_path = argv[i + 1];
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      opts.trace_out_path = argv[i] + 12;
    }
  }
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
