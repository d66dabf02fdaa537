#include "spec.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <tuple>

namespace tmg::tmglint {

namespace {

/// Numeric sort key of a priority field ("900" -> 900, "100+10N" -> 100).
long priority_key(const std::string& p) {
  return std::strtol(p.c_str(), nullptr, 10);
}

}  // namespace

std::string to_line(const SpecEntry& e) {
  std::ostringstream out;
  out << e.priority << " " << e.name << " ";
  if (e.subs.empty()) {
    out << "-";
  } else {
    for (std::size_t i = 0; i < e.subs.size(); ++i) {
      if (i > 0) out << "|";
      out << e.subs[i];
    }
  }
  return out.str();
}

std::string emit_pipeline_spec(const PipelineSpec& spec,
                               const std::string& profile_key) {
  std::ostringstream out;
  out << "# tmglint pipeline spec — the controller's listener chain in\n"
         "# dispatch order: <priority> <name> <subscriptions>.\n"
         "# `B+SN` is the defense band (base B, step S per installed\n"
         "# module); `<dynamic>` marks a name resolved only at runtime.\n"
         "# Profile: "
      << profile_key << " — ctrl::" << profile_key
      << "_profile()'s PipelineLayout applied to the registration\n"
         "# sites (negative slots compiled out of the chain).\n"
         "# Regenerate after a deliberate wiring change:\n"
         "#   tmglint --root . --emit-pipeline-spec --profile "
      << profile_key << " > tools/tmglint/pipeline_spec_" << profile_key
      << ".txt\n";
  for (const auto& e : spec.entries) out << to_line(e) << "\n";
  return out.str();
}

std::optional<PipelineSpec> parse_pipeline_spec(const std::string& path,
                                                std::string* error) {
  std::ifstream in{path};
  if (!in) {
    if (error != nullptr) *error = "cannot open spec file " + path;
    return std::nullopt;
  }
  PipelineSpec spec;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields{line};
    SpecEntry e;
    std::string subs;
    if (!(fields >> e.priority >> e.name >> subs)) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(lineno) +
                 ": expected `<priority> <name> <subscriptions>`";
      }
      return std::nullopt;
    }
    if (subs != "-") {
      std::stringstream ss{subs};
      std::string sub;
      while (std::getline(ss, sub, '|')) {
        if (!sub.empty()) e.subs.push_back(sub);
      }
    }
    spec.entries.push_back(std::move(e));
  }
  return spec;
}

void sort_spec_entries(std::vector<SpecEntry>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const SpecEntry& a, const SpecEntry& b) {
              return std::make_tuple(priority_key(a.priority), a.name) <
                     std::make_tuple(priority_key(b.priority), b.name);
            });
}

}  // namespace tmg::tmglint
