// tmglint CLI.
//
//   tmglint --root <repo> [--pass <p>]...
//           [--emit-pipeline-spec [--profile <key>]]
//           [--audit | --no-audit]
//
// Passes: determinism, lifetime, layering, pipeline (default: all four
// plus the suppression audit). Exit 0 clean, 1 findings, 2 usage or
// I/O error.
//
// --emit-pipeline-spec prints the extracted chain(s) in the checked-in
// spec format and exits. With --profile <key> only that profile's
// chain is printed; redirect it over
// tools/tmglint/pipeline_spec_<key>.txt after a deliberate wiring
// change. Without --profile every extracted spec is printed, each
// under its own header.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "analyzer.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --root <repo> [--pass "
      "determinism|lifetime|layering|pipeline]...\n"
      "          [--emit-pipeline-spec [--profile <key>]]\n"
      "          [--audit | --no-audit]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using tmg::tmglint::Pass;
  tmg::tmglint::Options opts;
  opts.root = ".";
  bool emit_spec = false;
  std::string emit_profile;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      opts.root = argv[++i];
    } else if (arg == "--profile" && i + 1 < argc) {
      emit_profile = argv[++i];
    } else if (arg == "--pass" && i + 1 < argc) {
      const std::string p = argv[++i];
      if (p == "determinism") {
        opts.passes.insert(Pass::Determinism);
      } else if (p == "lifetime") {
        opts.passes.insert(Pass::Lifetime);
      } else if (p == "layering") {
        opts.passes.insert(Pass::Layering);
      } else if (p == "pipeline") {
        opts.passes.insert(Pass::Pipeline);
      } else {
        std::fprintf(stderr, "tmglint: unknown pass '%s'\n", p.c_str());
        return usage(argv[0]);
      }
    } else if (arg == "--emit-pipeline-spec") {
      emit_spec = true;
    } else if (arg == "--audit") {
      opts.audit_override = 1;
    } else if (arg == "--no-audit") {
      opts.audit_override = 0;
    } else {
      std::fprintf(stderr, "tmglint: unknown argument '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  if (emit_spec) {
    opts.passes = {Pass::Pipeline};
    opts.skip_spec_diff = true;
    opts.audit_override = 0;
  } else if (!emit_profile.empty()) {
    std::fprintf(stderr,
                 "tmglint: --profile only applies to --emit-pipeline-spec\n");
    return usage(argv[0]);
  }

  try {
    const tmg::tmglint::AnalysisResult result = tmg::tmglint::analyze(opts);
    if (emit_spec) {
      std::string out;
      bool matched = emit_profile.empty();
      for (const auto& ps : result.extracted) {
        if (!emit_profile.empty() && ps.key != emit_profile) continue;
        matched = true;
        out += tmg::tmglint::emit_pipeline_spec(ps.spec, ps.key);
      }
      if (!matched) {
        std::fprintf(stderr, "tmglint: no extracted profile named '%s'\n",
                     emit_profile.c_str());
        return 2;
      }
      std::fwrite(out.data(), 1, out.size(), stdout);
      // Extraction problems (unresolvable registrations) still fail.
      return result.findings.empty() ? 0 : 1;
    }
    const std::string report = tmg::tmglint::render_report(result.findings);
    std::fwrite(report.data(), 1, report.size(), stdout);
    return result.findings.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tmglint: %s\n", e.what());
    return 2;
  }
}
