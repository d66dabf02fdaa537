#include "findings.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

namespace tmg::tmglint {

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
}

std::string render_report(const std::vector<Finding>& findings) {
  std::ostringstream out;
  if (findings.empty()) {
    out << "tmglint: clean\n";
    return out.str();
  }
  out << "tmglint: " << findings.size() << " finding(s)\n";
  for (const auto& f : findings) {
    out << "  " << f.file << ":" << f.line << ": " << f.rule << ": "
        << f.message << "\n";
  }
  out << "\nIf an occurrence is genuinely safe, annotate it with\n"
         "// tmglint: allow(<rule>) <reason> — layering and include-cycle\n"
         "findings are architectural and cannot be suppressed (fix the\n"
         "code).\n";
  return out.str();
}

}  // namespace tmg::tmglint
