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
