// Shared helpers for the example programs.
//
// Every example parses its command line through parse_example_args,
// naming the shared flags it acts on (ExampleFlags); only those are
// valid. A valued flag also takes the `--flag VALUE` spelling; any other
// argument, a malformed value or an unknown --profile exits 2 and lists
// the valid flags (scenario/cli.hpp). So the examples that delegate to
// the experiment drivers reject --modules, ids_scan_lab rejects
// --profile, and only the examples that run independent trials take
// --jobs.
//
// Every example takes --check, --pipeline-stats, --obs-out and
// --trace-out:
//
//   --check            attach the runtime invariant checker (src/check)
//                      and print a verification footer. A violation
//                      means the *simulator* is broken — the examples
//                      abort rather than print numbers computed from
//                      corrupted state.
//   --pipeline-stats   print per-listener dispatch counters at the end.
//   --obs-out=DIR      attach the observability layer and write
//                      metrics.json / metrics.csv / trace.jsonl /
//                      trace_chrome.json into DIR at the end.
//   --trace-out=FILE   attach the observability layer and write the
//                      span/instant trace (JSONL) to FILE.
//
// The ones an example names:
//
//   --modules=list     print the controller's message-pipeline chain
//                      (priority order) and exit codes aside, continue.
//   --modules=+X,-Y    enable (+) / disable (-) pipeline listeners by
//                      name before the simulation starts. Any other
//                      token, or a name not in the chain, is a usage
//                      error.
//   --profile=NAME     run under that controller pipeline profile
//                      (floodlight / pox / opendaylight / onos —
//                      Table III timers, dispatch discipline with its
//                      verdict gate, migration policy, and
//                      event-triggered probing all follow the profile).
//   --jobs N           worker threads for examples that run independent
//                      trials (0 = hardware default); output is the
//                      same for every N.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/profiles.hpp"
#include "obs/observability.hpp"
#include "scenario/cli.hpp"
#include "scenario/testbed.hpp"

namespace tmg::examples {

struct ExampleArgs {
  bool check = false;
  bool pipeline_stats = false;
  bool list_modules = false;
  std::vector<std::string> enable_modules;   // --modules=+Name
  std::vector<std::string> disable_modules;  // --modules=-Name
  std::string obs_out;    // --obs-out=DIR (empty: disabled)
  std::string trace_out;  // --trace-out=FILE (empty: disabled)
  std::optional<ctrl::ControllerProfile> profile;  // --profile=NAME
  std::size_t jobs = 0;   // --jobs N (0: hardware default)

  /// Either observability flag present?
  [[nodiscard]] bool obs_enabled() const {
    return !obs_out.empty() || !trace_out.empty();
  }
};

/// The shared flags an example acts on beyond the four every example
/// takes.
struct ExampleFlags {
  bool modules = false;  // the example owns its controller
  bool profile = false;
  bool jobs = false;     // the example runs independent trials
};

/// Parse the four common flags and those `takes` names; exits 2 on
/// anything else.
inline ExampleArgs parse_example_args(int argc, char** argv,
                                      ExampleFlags takes) {
  ExampleArgs args;
  // Comma-separated list of "list", "+Name" or "-Name" tokens.
  const auto modules = [&args](const std::string& value) {
    std::string rest = value;
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      const std::string token = rest.substr(0, comma);
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
      if (token.empty()) continue;
      if (token == "list") {
        args.list_modules = true;
      } else if (token[0] == '+') {
        args.enable_modules.push_back(token.substr(1));
      } else if (token[0] == '-') {
        args.disable_modules.push_back(token.substr(1));
      } else {
        return "--modules token '" + token +
               "' is not 'list', '+name' or '-name'";
      }
    }
    return std::string{};
  };
  std::vector<scenario::CliFlag> flags{
      scenario::cli_switch("--check", args.check),
      scenario::cli_switch("--pipeline-stats", args.pipeline_stats)};
  if (takes.modules) flags.push_back({"--modules", "LIST", modules});
  flags.push_back(scenario::cli_text("--obs-out", "DIR", args.obs_out));
  flags.push_back(scenario::cli_text("--trace-out", "FILE", args.trace_out));
  if (takes.profile) flags.push_back(scenario::cli_profile(args.profile));
  if (takes.jobs) {
    flags.push_back(
        scenario::cli_count("--jobs", args.jobs, "0 = hardware default"));
  }
  scenario::parse_cli(argc, argv, flags);
  return args;
}

/// Apply `--check` to testbed options built by an example.
inline void apply_check_flag(scenario::TestbedOptions& opts,
                             const ExampleArgs& args) {
  if (args.check) opts.check_invariants = true;
}

/// Apply `--profile=` to testbed options built by an example.
inline void apply_profile_flag(scenario::TestbedOptions& opts,
                               const ExampleArgs& args) {
  if (args.profile) opts.controller.profile = *args.profile;
}

/// Apply `--modules=` to a controller whose defenses are installed:
/// print the chain for "list", then flip the requested listeners. A
/// name not in the chain exits 2, listing the chain's names.
inline void apply_modules(ctrl::Controller& ctrl, const ExampleArgs& args) {
  if (args.list_modules) {
    std::printf("\n[--modules] pipeline chain (priority order):\n");
    for (const auto& s : ctrl.pipeline().stats()) {
      std::printf("  %4d  %-16s %s\n", s.priority, s.name.c_str(),
                  s.enabled ? "enabled" : "disabled");
    }
  }
  const auto set = [&ctrl](const std::string& name, bool enabled) {
    if (ctrl.pipeline().set_enabled(name, enabled)) return;
    std::string chain;
    for (const auto& s : ctrl.pipeline().stats()) chain += " " + s.name;
    std::fprintf(stderr,
                 "error: --modules: no listener named '%s'\n"
                 "listeners:%s\n",
                 name.c_str(), chain.c_str());
    std::exit(2);
  };
  for (const std::string& name : args.enable_modules) set(name, true);
  for (const std::string& name : args.disable_modules) set(name, false);
}

/// Footer for `--pipeline-stats`: per-listener dispatch counters. Wall
/// time is deliberately omitted (counters are deterministic, host
/// clocks are not).
inline void print_pipeline_stats(
    const std::vector<ctrl::MessagePipeline::ListenerStats>& stats,
    const ExampleArgs& args) {
  if (!args.pipeline_stats) return;
  std::printf("\n[--pipeline-stats] listener dispatch counters:\n");
  std::printf("  %4s  %-16s %10s %8s\n", "prio", "listener", "dispatches",
              "stops");
  for (const auto& s : stats) {
    std::printf("  %4d  %-16s %10llu %8llu\n", s.priority, s.name.c_str(),
                static_cast<unsigned long long>(s.dispatches),
                static_cast<unsigned long long>(s.stops));
  }
}

inline void print_pipeline_stats(const ctrl::Controller& ctrl,
                                 const ExampleArgs& args) {
  print_pipeline_stats(ctrl.pipeline().stats(), args);
}

/// Verification footer for a testbed the example built itself. Runs the
/// final battery so teardown state is validated too.
inline void print_check_summary(scenario::Testbed& tb) {
  check::InvariantChecker* checker = tb.invariant_checker();
  if (checker == nullptr) return;
  checker->final_check();
  std::printf("\n[--check] invariant sweeps: %llu, violations: %llu\n",
              static_cast<unsigned long long>(checker->checks_run()),
              static_cast<unsigned long long>(checker->violation_count()));
}

/// Verification footer for experiment-driver outcomes that carry the
/// checker counters.
inline void print_check_summary(unsigned long long sweeps,
                                unsigned long long violations) {
  std::printf("\n[--check] invariant sweeps: %llu, violations: %llu\n",
              sweeps, violations);
}

/// Build the Observability object when either obs flag is present
/// (callers keep it alive for the run); nullptr when disabled.
inline std::unique_ptr<obs::Observability> make_observability(
    const ExampleArgs& args) {
  if (!args.obs_enabled()) return nullptr;
  return std::make_unique<obs::Observability>();
}

/// Export footer for `--obs-out` / `--trace-out`: metrics snapshot (via
/// the registered collectors) and the span trace, all sim-time based so
/// reruns produce byte-identical files. Returns false when a file could
/// not be written (write_text_file names it on stderr); the success line
/// for that flag is skipped and the caller exits 1.
[[nodiscard]] inline bool export_observability(obs::Observability* obs,
                                               sim::SimTime at,
                                               const ExampleArgs& args) {
  if (obs == nullptr) return true;
  bool ok = true;
  if (!args.trace_out.empty()) {
    if (obs::write_text_file(args.trace_out, obs->trace().to_jsonl())) {
      std::printf("\n[--trace-out] %zu trace records -> %s\n",
                  obs->trace().size(), args.trace_out.c_str());
    } else {
      ok = false;
    }
  }
  if (!args.obs_out.empty()) {
    const std::string dir = args.obs_out;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // best effort
    // Evaluate every write: a failure must not skip the later files.
    const bool wrote[] = {
        obs::write_text_file(dir + "/metrics.json", obs->metrics_json(at)),
        obs::write_text_file(dir + "/metrics.csv", obs->metrics_csv(at)),
        obs::write_text_file(dir + "/trace.jsonl", obs->trace().to_jsonl()),
        obs::write_text_file(dir + "/trace_chrome.json",
                             obs->trace().to_chrome_trace()),
    };
    if (std::all_of(std::begin(wrote), std::end(wrote),
                    [](bool w) { return w; })) {
      std::printf(
          "\n[--obs-out] %zu metrics, %zu trace records -> %s/"
          "{metrics.json,metrics.csv,trace.jsonl,trace_chrome.json}\n",
          obs->metrics().size(), obs->trace().size(), dir.c_str());
    } else {
      ok = false;
    }
  }
  return ok;
}

}  // namespace tmg::examples
