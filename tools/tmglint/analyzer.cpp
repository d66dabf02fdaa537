#include "analyzer.hpp"

#include <algorithm>

namespace tmg::tmglint {

namespace {

bool wants(const Options& opts, Pass p) {
  return opts.passes.empty() || opts.passes.count(p) != 0;
}

}  // namespace

void run_suppression_audit(const SourceTree& tree,
                           std::vector<Finding>& findings) {
  for (const auto& f : tree.files) {
    const auto& s = f.suppressions;
    if (s.skip_file && !s.skip_file_used) {
      findings.push_back(
          Finding{f.rel, s.skip_file_line, "stale-suppression",
                  "skip-file directive but the file is clean without it — "
                  "remove the directive"});
    }
    for (const auto& allow : s.allows) {
      for (std::size_t k = 0; k < allow.rules.size(); ++k) {
        if (allow.used[k]) continue;
        findings.push_back(
            Finding{f.rel, allow.line, "stale-suppression",
                    "allow(" + allow.rules[k] +
                        ") no longer suppresses anything — remove it"});
      }
    }
  }
}

std::vector<Finding> analyze(const Options& opts) {
  std::vector<Finding> findings;
  const SourceTree tree = load_source_tree(opts.root);

  if (wants(opts, Pass::Determinism)) run_determinism_pass(tree, findings);
  if (wants(opts, Pass::Lifetime)) run_lifetime_pass(tree, findings);
  if (wants(opts, Pass::Layering)) run_layering_pass(tree, findings);

  // The audit needs every suppressable pass to have run, else a
  // directive for the skipped pass would be misreported as stale.
  const bool audit =
      opts.audit_override == 1 ||
      (opts.audit_override == -1 && wants(opts, Pass::Determinism) &&
       wants(opts, Pass::Lifetime));
  if (audit) run_suppression_audit(tree, findings);

  sort_findings(findings);
  return findings;
}

}  // namespace tmg::tmglint
