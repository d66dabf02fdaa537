// tmglint: source model.
//
// A SourceTree is every .hpp/.cpp under <root>/src, each lexed once.
// Files carry their suppression directives (parsed from the comment
// stream, so a directive inside a string literal is inert) and a
// consumption flag per directive that feeds the suppression audit.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "token.hpp"

namespace tmg::tmglint {

/// One `allow(<rules>)` directive. `used` flips when the directive
/// actually suppresses (or annotates) a finding; the audit reports
/// directives that never flip.
struct AllowDirective {
  int line = 0;
  std::vector<std::string> rules;
  mutable std::vector<bool> used;  // parallel to `rules`
};

struct Suppressions {
  std::vector<AllowDirective> allows;
  bool skip_file = false;
  int skip_file_line = 0;
  mutable bool skip_file_used = false;

  /// True when `rule` at `line` is covered by an allow on the same or
  /// the preceding line. Marks the matching directive used.
  [[nodiscard]] bool allowed(const std::string& rule, int line) const;
};

struct SourceFile {
  std::string rel;     // path relative to the tree root, '/'-separated
  std::string module;  // "sim", "ctrl", ... ("check" splits, see below)
  std::vector<std::string> lines;  // raw lines, for finding excerpts
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<IncludeDirective> includes;
  Suppressions suppressions;

  /// Whitespace-trimmed source line (1-based), for finding messages.
  [[nodiscard]] std::string excerpt(int line) const;
};

struct SourceTree {
  std::string root;
  std::vector<SourceFile> files;  // sorted by rel path

  /// The paired header/implementation of `file` (foo.cpp <-> foo.hpp),
  /// or nullptr. Several rules are file-pair properties: a member
  /// declared in the .hpp is iterated in the .cpp.
  [[nodiscard]] const SourceFile* sibling(const SourceFile& file) const;
  [[nodiscard]] const SourceFile* find(const std::string& rel) const;
};

/// Module assignment for `src/<dir>/<file>`. `src/check` splits in two:
/// assert.* is a leaf utility every layer may use ("check_assert"),
/// invariants.* sits above the controller it audits ("check_invariants").
[[nodiscard]] std::string module_of(const std::string& rel);

/// Load and lex every src/**.{hpp,cpp} under `root`. Throws
/// std::runtime_error when root/src does not exist.
[[nodiscard]] SourceTree load_source_tree(const std::string& root);

/// Parse `tmglint:` suppression directives out of a comment stream:
/// `allow(<rule>[, <rule>...]) <reason>` and `skip-file <reason>`.
[[nodiscard]] Suppressions parse_suppressions(
    const std::vector<Comment>& comments);

}  // namespace tmg::tmglint
