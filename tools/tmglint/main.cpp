// tmglint CLI.
//
//   tmglint --root <repo> [--pass <p>]... [--audit | --no-audit]
//
// Passes: determinism, lifetime, layering (default: all three plus the
// suppression audit). Exit 0 clean, 1 findings, 2 usage or I/O error.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "analyzer.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --root <repo> [--pass "
               "determinism|lifetime|layering]...\n"
               "          [--audit | --no-audit]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using tmg::tmglint::Pass;
  tmg::tmglint::Options opts;
  opts.root = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      opts.root = argv[++i];
    } else if (arg == "--pass" && i + 1 < argc) {
      const std::string p = argv[++i];
      if (p == "determinism") {
        opts.passes.insert(Pass::Determinism);
      } else if (p == "lifetime") {
        opts.passes.insert(Pass::Lifetime);
      } else if (p == "layering") {
        opts.passes.insert(Pass::Layering);
      } else {
        std::fprintf(stderr, "tmglint: unknown pass '%s'\n", p.c_str());
        return usage(argv[0]);
      }
    } else if (arg == "--audit") {
      opts.audit_override = 1;
    } else if (arg == "--no-audit") {
      opts.audit_override = 0;
    } else {
      std::fprintf(stderr, "tmglint: unknown argument '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  try {
    const auto findings = tmg::tmglint::analyze(opts);
    const std::string report = tmg::tmglint::render_report(findings);
    std::fwrite(report.data(), 1, report.size(), stdout);
    return findings.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tmglint: %s\n", e.what());
    return 2;
  }
}
