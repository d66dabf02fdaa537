// tmglint: analysis driver.
//
// Three passes over a lexed SourceTree (DESIGN.md §11):
//
//   determinism  — the eight determinism rules (wall-clock, libc-rand,
//                  random-device, unordered-iter, pointer-key,
//                  threading, shared-rng, cache-coherence), matched on
//                  the token stream so strings and comments never
//                  trigger a finding.
//   lifetime     — posted-callback lifetime: lambdas handed to
//                  EventLoop::post_at/post_after that capture stack
//                  locals by reference, or `this` through a loop the
//                  caller merely borrowed.
//   layering     — the module include DAG: layer ranks, the obs
//                  floating-module rule, and file-level cycle
//                  rejection.
//
// The controller's listener chain is pinned by running it
// (ControllerPipeline.ChainMatchesGoldenPerProfile in
// tests/pipeline_test.cpp), not by this analyzer.
//
// A suppression audit runs whenever every suppressable pass ran: any
// `allow(<rule>)` that suppressed nothing is itself a finding.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "findings.hpp"
#include "source.hpp"

namespace tmg::tmglint {

enum class Pass { Determinism, Lifetime, Layering };

struct Options {
  std::string root;
  /// Empty = all passes.
  std::set<Pass> passes;
  /// Force the suppression audit on/off; by default it runs exactly
  /// when both suppressable passes (determinism + lifetime) run.
  int audit_override = -1;  // -1 auto, 0 off, 1 on
};

/// Load <root>/src and run the selected passes; the findings come back
/// sorted.
[[nodiscard]] std::vector<Finding> analyze(const Options& opts);

// Individual passes (analyze() composes these; tests drive them
// directly against fixture trees).
void run_determinism_pass(const SourceTree& tree,
                          std::vector<Finding>& findings);
void run_lifetime_pass(const SourceTree& tree, std::vector<Finding>& findings);
void run_layering_pass(const SourceTree& tree, std::vector<Finding>& findings);
/// Report allow()/skip-file directives that suppressed nothing. Must
/// run after the suppressable passes (they set the consumption flags).
void run_suppression_audit(const SourceTree& tree,
                           std::vector<Finding>& findings);

}  // namespace tmg::tmglint
