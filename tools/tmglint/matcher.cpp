#include "matcher.hpp"

#include <algorithm>

namespace tmg::tmglint {

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::Ident && t.text == text;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::Punct && t.text == text;
}

std::size_t match_balanced(const std::vector<Token>& t, std::size_t open) {
  const std::string& o = t[open].text;
  const char close = o == "(" ? ')' : o == "[" ? ']' : '}';
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != TokKind::Punct || t[i].text.size() != 1) continue;
    const char c = t[i].text[0];
    if (c == o[0]) ++depth;
    if (c == close && --depth == 0) return i;
  }
  return t.size();
}

std::size_t match_angle(const std::vector<Token>& t, std::size_t open) {
  int angle = 0;
  int paren = 0;
  const std::size_t limit = std::min(t.size(), open + 400);
  for (std::size_t i = open; i < limit; ++i) {
    if (t[i].kind != TokKind::Punct || t[i].text.size() != 1) continue;
    const char c = t[i].text[0];
    if (c == '(' || c == '[' || c == '{') ++paren;
    if (c == ')' || c == ']' || c == '}') {
      if (paren == 0) return t.size();
      --paren;
    }
    if (paren > 0) continue;
    if (c == ';') return t.size();
    if (c == '<') ++angle;
    if (c == '>' && --angle == 0) return i;
  }
  return t.size();
}

std::vector<std::pair<std::size_t, std::size_t>> split_args(
    const std::vector<Token>& t, std::size_t open) {
  std::vector<std::pair<std::size_t, std::size_t>> args;
  const std::size_t close = match_balanced(t, open);
  if (close >= t.size()) return args;
  std::size_t start = open + 1;
  int depth = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (t[i].kind == TokKind::Punct && t[i].text.size() == 1) {
      const char c = t[i].text[0];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') --depth;
      if (c == ',' && depth == 0) {
        args.emplace_back(start, i);
        start = i + 1;
        continue;
      }
    }
  }
  if (start < close || close > open + 1) args.emplace_back(start, close);
  return args;
}

namespace {

bool is_body_qualifier(const Token& t) {
  return is_ident(t, "const") || is_ident(t, "override") ||
         is_ident(t, "final") || is_ident(t, "noexcept") ||
         is_ident(t, "mutable");
}

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> callable_spans(
    const std::vector<Token>& t) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_punct(t[i], "{")) continue;
    // Walk back over trailing qualifiers and a trailing-return type
    // (a `-> Type` of identifiers/::/<>/*&) to find what introduced
    // this brace.
    std::size_t p = i;
    bool saw_arrow = false;
    while (p > 0) {
      const Token& prev = t[p - 1];
      if (is_body_qualifier(prev)) {
        --p;
        continue;
      }
      if (is_punct(prev, "->")) {
        saw_arrow = true;
        --p;
        continue;
      }
      if (saw_arrow &&
          (prev.kind == TokKind::Ident || is_punct(prev, "::") ||
           is_punct(prev, "<") || is_punct(prev, ">") ||
           is_punct(prev, "*") || is_punct(prev, "&"))) {
        --p;
        continue;
      }
      // `noexcept(...)` / return-type template args end with ')' or
      // '>' too; treating those as call parens is fine (see header).
      break;
    }
    if (p > 0 && is_punct(t[p - 1], ")")) {
      const std::size_t end = match_balanced(t, i);
      if (end < t.size()) spans.emplace_back(i, end);
    }
  }
  return spans;
}

std::optional<std::pair<std::size_t, std::size_t>> enclosing_callable(
    const std::vector<std::pair<std::size_t, std::size_t>>& spans,
    std::size_t i) {
  std::optional<std::pair<std::size_t, std::size_t>> best;
  for (const auto& s : spans) {
    if (s.first >= i || s.second <= i) continue;
    if (!best || s.second - s.first > best->second - best->first) best = s;
  }
  return best;
}

std::string receiver_anchor(const std::vector<Token>& t, std::size_t method) {
  std::size_t p = method;
  std::string anchor;
  while (p > 0) {
    const Token& sep = t[p - 1];
    if (!is_punct(sep, ".") && !is_punct(sep, "->")) break;
    if (p < 2) return "";
    std::size_t q = p - 2;  // token before the separator
    if (is_punct(t[q], ")")) {
      // Walk back over the call's argument list to its callee name.
      int depth = 0;
      while (q > 0) {
        if (is_punct(t[q], ")")) ++depth;
        if (is_punct(t[q], "(") && --depth == 0) break;
        --q;
      }
      if (q == 0 || t[q - 1].kind != TokKind::Ident) return "";
      --q;
    }
    if (t[q].kind != TokKind::Ident) return "";
    anchor = t[q].text;
    p = q;
  }
  return anchor;
}

std::map<std::string, std::string> harvest_string_constants(
    const std::vector<Token>& t) {
  std::map<std::string, std::string> out;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!is_ident(t[i], "constexpr")) continue;
    // Scan the declarator up to `=`, remembering the last identifier
    // (the constant's name). Bail at statement end.
    std::size_t eq = i + 1;
    std::string name;
    while (eq < t.size() && !is_punct(t[eq], "=") && !is_punct(t[eq], ";") &&
           !is_punct(t[eq], "{")) {
      if (t[eq].kind == TokKind::Ident) name = t[eq].text;
      ++eq;
    }
    if (eq + 1 >= t.size() || !is_punct(t[eq], "=") || name.empty()) continue;
    if (t[eq + 1].kind != TokKind::String) continue;
    out[name] = t[eq + 1].text;
  }
  return out;
}

namespace {

/// Parses `return <literal-or-ident> ;` bodies for name() methods and
/// collects MessageType::X mentions for subscriptions() bodies.
void analyze_method_body(const std::vector<Token>& t, std::size_t body_open,
                         std::size_t body_close, const std::string& method,
                         ClassInfo& info) {
  if (method == "name") {
    info.has_name_method = true;
    if (body_open + 2 < body_close && is_ident(t[body_open + 1], "return")) {
      const Token& v = t[body_open + 2];
      if (v.kind == TokKind::String && is_punct(t[body_open + 3], ";")) {
        info.name_literal = v.text;
        return;
      }
      if (v.kind == TokKind::Ident && is_punct(t[body_open + 3], ";")) {
        info.name_constant = v.text;
        return;
      }
    }
    info.name_dynamic = true;
    return;
  }
  if (method == "subscriptions") {
    for (std::size_t i = body_open; i + 2 < body_close; ++i) {
      if (is_ident(t[i], "MessageType") && is_punct(t[i + 1], "::") &&
          t[i + 2].kind == TokKind::Ident) {
        info.subscriptions.insert(t[i + 2].text);
      }
    }
  }
}

/// Is token index `i` a method-name identifier followed by `(` `)` and
/// eventually a `{` body (skipping qualifiers)? Returns the body-open
/// index, or npos.
std::size_t method_body_open(const std::vector<Token>& t, std::size_t i) {
  if (i + 1 >= t.size() || !is_punct(t[i + 1], "(")) return t.size();
  std::size_t close = match_balanced(t, i + 1);
  if (close >= t.size()) return t.size();
  std::size_t j = close + 1;
  while (j < t.size() && (is_body_qualifier(t[j]) || is_punct(t[j], "->") ||
                          (j > 0 && is_punct(t[j - 1], "->") &&
                           t[j].kind == TokKind::Ident))) {
    ++j;
  }
  return j < t.size() && is_punct(t[j], "{") ? j : t.size();
}

}  // namespace

std::vector<ClassInfo> harvest_classes(const std::vector<Token>& t) {
  std::vector<ClassInfo> classes;
  // Pass 1: class declarations with bodies.
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!is_ident(t[i], "class") && !is_ident(t[i], "struct")) continue;
    if (t[i + 1].kind != TokKind::Ident) continue;
    // `class Outer::Nested final : ...` — the declared class is the
    // last identifier of the qualified name.
    std::size_t j = i + 1;
    while (j + 2 < t.size() && is_punct(t[j + 1], "::") &&
           t[j + 2].kind == TokKind::Ident) {
      j += 2;
    }
    ClassInfo info;
    info.name = t[j].text;
    info.line = t[j].line;
    ++j;
    if (is_ident(t[j], "final")) ++j;
    if (is_punct(t[j], ";")) continue;  // forward declaration
    if (is_punct(t[j], ":")) {
      ++j;
      // Base list: qualified names separated by commas; keep the last
      // identifier of each qualified name.
      std::string last;
      while (j < t.size() && !is_punct(t[j], "{")) {
        if (t[j].kind == TokKind::Ident && !is_ident(t[j], "public") &&
            !is_ident(t[j], "private") && !is_ident(t[j], "protected") &&
            !is_ident(t[j], "virtual")) {
          last = t[j].text;
        }
        if (is_punct(t[j], ",") && !last.empty()) {
          info.bases.push_back(last);
          last.clear();
        }
        if (is_punct(t[j], "<")) {  // skip template args in base names
          const std::size_t end = match_angle(t, j);
          if (end >= t.size()) break;
          j = end;
        }
        ++j;
      }
      if (!last.empty()) info.bases.push_back(last);
    }
    if (j >= t.size() || !is_punct(t[j], "{")) continue;
    const std::size_t body_end = match_balanced(t, j);
    if (body_end >= t.size()) continue;
    // In-class name()/subscriptions() bodies.
    for (std::size_t k = j + 1; k < body_end; ++k) {
      if (t[k].kind != TokKind::Ident ||
          (t[k].text != "name" && t[k].text != "subscriptions")) {
        continue;
      }
      const std::size_t open = method_body_open(t, k);
      if (open >= t.size()) continue;
      analyze_method_body(t, open, match_balanced(t, open), t[k].text, info);
    }
    classes.push_back(std::move(info));
  }
  // Pass 2: out-of-class `T Class::name() const { ... }` definitions.
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (t[i].kind != TokKind::Ident || !is_punct(t[i + 1], "::")) continue;
    const Token& m = t[i + 2];
    if (m.kind != TokKind::Ident ||
        (m.text != "name" && m.text != "subscriptions")) {
      continue;
    }
    const std::size_t open = method_body_open(t, i + 2);
    if (open >= t.size()) continue;
    for (auto& info : classes) {
      if (info.name == t[i].text) {
        analyze_method_body(t, open, match_balanced(t, open), m.text, info);
      }
    }
  }
  return classes;
}

std::map<std::string, std::string> harvest_unique_ptr_members(
    const std::vector<Token>& t) {
  std::map<std::string, std::string> out;
  for (std::size_t i = 0; i + 4 < t.size(); ++i) {
    if (!is_ident(t[i], "unique_ptr") || !is_punct(t[i + 1], "<")) continue;
    const std::size_t close = match_angle(t, i + 1);
    if (close + 2 >= t.size()) continue;
    // Type = last identifier inside the angle brackets.
    std::string type;
    for (std::size_t k = i + 2; k < close; ++k) {
      if (t[k].kind == TokKind::Ident) type = t[k].text;
    }
    if (t[close + 1].kind == TokKind::Ident && is_punct(t[close + 2], ";") &&
        !type.empty()) {
      out[t[close + 1].text] = type;
    }
  }
  return out;
}

std::set<std::string> harvest_unordered_members(const std::vector<Token>& t) {
  std::set<std::string> out;
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (!is_ident(t[i], "unordered_map") && !is_ident(t[i], "unordered_set")) {
      continue;
    }
    if (!is_punct(t[i + 1], "<")) continue;
    const std::size_t close = match_angle(t, i + 1);
    if (close + 1 >= t.size() || t[close + 1].kind != TokKind::Ident) continue;
    if (close + 2 < t.size() &&
        (is_punct(t[close + 2], ";") || is_punct(t[close + 2], "{") ||
         is_punct(t[close + 2], "="))) {
      out.insert(t[close + 1].text);
    }
  }
  return out;
}

}  // namespace tmg::tmglint
