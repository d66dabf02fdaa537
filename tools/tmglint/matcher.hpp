// tmglint: lightweight declaration/statement matching over the token
// stream. These helpers are the middle layer between the lexer and the
// passes: balanced-delimiter scanning, argument splitting, callable
// (function/lambda body) segmentation, member-access chains, and the
// unordered-container member harvester.
#pragma once

#include <cstddef>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "token.hpp"

namespace tmg::tmglint {

// --- token predicates ---------------------------------------------------

[[nodiscard]] bool is_ident(const Token& t, const char* text);
[[nodiscard]] bool is_punct(const Token& t, const char* text);

// --- balanced scanning --------------------------------------------------

/// Index of the token matching the opener at `open` ('(', '[', '{'),
/// or tokens.size() when unbalanced. `open` must hold the opener.
[[nodiscard]] std::size_t match_balanced(const std::vector<Token>& t,
                                         std::size_t open);

/// Index of the `>` matching a template `<` at `open`, treating nested
/// (), [], {} as opaque. Gives up (returns t.size()) at `;`, at an
/// unbalanced closer, or after a bounded scan — the callers only match
/// declaration-sized template argument lists, never whole files.
[[nodiscard]] std::size_t match_angle(const std::vector<Token>& t,
                                      std::size_t open);

/// Split the argument tokens of a call whose `(` sits at `open` into
/// top-level comma-separated [first, last) index ranges.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> split_args(
    const std::vector<Token>& t, std::size_t open);

// --- callable segmentation ----------------------------------------------

/// [open-brace, close-brace] index spans of every brace block that
/// looks like a callable body: a `{` preceded by `)` modulo trailing
/// qualifiers (const/override/noexcept/trailing-return). Control-flow
/// blocks (`if (...) {`) match too; that is harmless because callers
/// take the *outermost* enclosing span, which for any token inside a
/// function is the function body itself.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
callable_spans(const std::vector<Token>& t);

/// The widest callable span containing token index `i`, if any.
[[nodiscard]] std::optional<std::pair<std::size_t, std::size_t>>
enclosing_callable(
    const std::vector<std::pair<std::size_t, std::size_t>>& spans,
    std::size_t i);

// --- member-access chains -----------------------------------------------

/// For a member call `a.b().c.post_after(...)` with the final method
/// name at index `method`, return the identifier anchoring the chain
/// (`a`). Empty when the call is not a member access (free function).
[[nodiscard]] std::string receiver_anchor(const std::vector<Token>& t,
                                          std::size_t method);

// --- declaration harvesting ---------------------------------------------

/// Names of members declared as `unordered_map<...> m_;` or
/// `unordered_set<...> s_;` (the unordered-iter rule's universe).
[[nodiscard]] std::set<std::string> harvest_unordered_members(
    const std::vector<Token>& t);

}  // namespace tmg::tmglint
