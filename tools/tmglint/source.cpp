#include "source.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace tmg::tmglint {

namespace fs = std::filesystem;

bool Suppressions::allowed(const std::string& rule, int line) const {
  for (const auto& a : allows) {
    if (a.line != line && a.line != line - 1) continue;
    for (std::size_t i = 0; i < a.rules.size(); ++i) {
      if (a.rules[i] == rule) {
        a.used[i] = true;
        return true;
      }
    }
  }
  return false;
}

std::string SourceFile::excerpt(int line) const {
  if (line < 1 || static_cast<std::size_t>(line) > lines.size()) return "";
  const std::string& raw = lines[static_cast<std::size_t>(line) - 1];
  const auto b = raw.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const auto e = raw.find_last_not_of(" \t\r");
  return raw.substr(b, e - b + 1);
}

const SourceFile* SourceTree::sibling(const SourceFile& file) const {
  const auto dot = file.rel.rfind('.');
  if (dot == std::string::npos) return nullptr;
  const std::string ext = file.rel.substr(dot);
  const std::string other =
      file.rel.substr(0, dot) + (ext == ".cpp" ? ".hpp" : ".cpp");
  return find(other);
}

const SourceFile* SourceTree::find(const std::string& rel) const {
  const auto it = std::lower_bound(
      files.begin(), files.end(), rel,
      [](const SourceFile& f, const std::string& r) { return f.rel < r; });
  return it != files.end() && it->rel == rel ? &*it : nullptr;
}

std::string module_of(const std::string& rel) {
  // rel is "src/<dir>/<file>" (or a deeper path; the first component
  // after src/ names the module).
  std::vector<std::string> parts;
  std::stringstream ss{rel};
  std::string part;
  while (std::getline(ss, part, '/')) parts.push_back(part);
  if (parts.size() < 3 || parts[0] != "src") return "";
  const std::string& dir = parts[1];
  if (dir == "check") {
    const std::string& stem = parts.back();
    return stem.rfind("assert.", 0) == 0 ? "check_assert" : "check_invariants";
  }
  return dir;
}

Suppressions parse_suppressions(const std::vector<Comment>& comments) {
  Suppressions out;
  for (const auto& c : comments) {
    const std::size_t tag = c.text.find("tmglint:");
    if (tag == std::string::npos) continue;
    std::size_t after = tag + 8;
    // Skip whitespace after the tag.
    while (after < c.text.size() &&
           (c.text[after] == ' ' || c.text[after] == '\t')) {
      ++after;
    }
    if (c.text.compare(after, 9, "skip-file") == 0) {
      out.skip_file = true;
      out.skip_file_line = c.line;
      continue;
    }
    if (c.text.compare(after, 6, "allow(") != 0) continue;
    const std::size_t open = after + 6;
    const std::size_t close = c.text.find(')', open);
    if (close == std::string::npos) continue;
    AllowDirective d;
    d.line = c.line;
    std::stringstream rules{c.text.substr(open, close - open)};
    std::string rule;
    while (std::getline(rules, rule, ',')) {
      const auto b = rule.find_first_not_of(" \t");
      const auto e = rule.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      d.rules.push_back(rule.substr(b, e - b + 1));
    }
    d.used.assign(d.rules.size(), false);
    if (!d.rules.empty()) out.allows.push_back(std::move(d));
  }
  return out;
}

SourceTree load_source_tree(const std::string& root) {
  const fs::path src = fs::path{root} / "src";
  if (!fs::is_directory(src)) {
    throw std::runtime_error("tmglint: no src/ directory under " + root);
  }
  SourceTree tree;
  tree.root = root;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".hpp" || ext == ".cpp") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& p : paths) {
    std::ifstream in{p, std::ios::binary};
    std::ostringstream buf;
    buf << in.rdbuf();
    SourceFile f;
    f.rel = fs::relative(p, fs::path{root}).generic_string();
    f.module = module_of(f.rel);
    const std::string text = buf.str();
    std::stringstream liner{text};
    std::string line;
    while (std::getline(liner, line)) f.lines.push_back(line);
    LexOutput lexed = lex(text);
    f.tokens = std::move(lexed.tokens);
    f.comments = std::move(lexed.comments);
    f.includes = std::move(lexed.includes);
    f.suppressions = parse_suppressions(f.comments);
    tree.files.push_back(std::move(f));
  }
  return tree;
}

}  // namespace tmg::tmglint
