// tmglint: analysis driver.
//
// Four passes over a lexed SourceTree (DESIGN.md §11):
//
//   determinism  — the nine determinism rules (wall-clock, libc-rand,
//                  random-device, unordered-iter, pointer-key,
//                  threading, shared-rng, registry-bypass,
//                  cache-coherence), matched on the token stream so
//                  strings and comments never trigger a finding.
//   lifetime     — posted-callback lifetime: lambdas handed to
//                  EventLoop::post_at/post_after that capture stack
//                  locals by reference, or `this` through a loop the
//                  caller merely borrowed.
//   layering     — the module include DAG: layer ranks, the obs
//                  floating-module rule, and file-level cycle
//                  rejection.
//   pipeline     — MessagePipeline wiring: every registration in
//                  src/ctrl + src/defense is statically extracted
//                  (PipelineLayout slots and priority constants folded,
//                  listener names resolved through name() bodies),
//                  instantiated once per harvested `<key>_profile()`
//                  layout, and diffed against the checked-in
//                  <root>/tools/tmglint/pipeline_spec_<key>.txt files.
//
// A suppression audit runs whenever every suppressable pass ran: any
// `allow(<rule>)` that suppressed nothing is itself a finding.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "findings.hpp"
#include "source.hpp"
#include "spec.hpp"

namespace tmg::tmglint {

enum class Pass { Determinism, Lifetime, Layering, Pipeline };

struct Options {
  std::string root;
  /// Empty = all passes.
  std::set<Pass> passes;
  /// Extract the pipeline spec without diffing it (--emit-pipeline-spec).
  bool skip_spec_diff = false;
  /// Force the suppression audit on/off; by default it runs exactly
  /// when both suppressable passes (determinism + lifetime) run.
  int audit_override = -1;  // -1 auto, 0 off, 1 on
};

struct AnalysisResult {
  std::vector<Finding> findings;  // sorted
  /// Pipeline pass output (if it ran): one spec per harvested profile.
  std::vector<ProfileSpec> extracted;
  bool pipeline_ran = false;
};

/// Load <root>/src and run the selected passes.
[[nodiscard]] AnalysisResult analyze(const Options& opts);

// Individual passes (analyze() composes these; tests drive them
// directly against fixture trees).
void run_determinism_pass(const SourceTree& tree,
                          std::vector<Finding>& findings);
void run_lifetime_pass(const SourceTree& tree, std::vector<Finding>& findings);
void run_layering_pass(const SourceTree& tree, std::vector<Finding>& findings);
[[nodiscard]] std::vector<ProfileSpec> run_pipeline_pass(
    const SourceTree& tree, bool skip_spec_diff,
    std::vector<Finding>& findings);
/// Report allow()/skip-file directives that suppressed nothing. Must
/// run after the suppressable passes (they set the consumption flags).
void run_suppression_audit(const SourceTree& tree,
                           std::vector<Finding>& findings);

}  // namespace tmg::tmglint
