// Determinism rules: the eight bans that keep every run bit-reproducible
// (DESIGN.md §6, §11b), matched on the token stream, so a banned
// identifier inside a comment, string literal, or raw string can never
// trigger — or mask — a finding. Scope: every src/ file except the
// sanctioned entropy source src/sim/rng.*. One finding per
// (file, line, rule), however many tokens on the line match.
#include <array>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analyzer.hpp"
#include "matcher.hpp"

namespace tmg::tmglint {

namespace {

struct RawFinding {
  std::string rule;
  int line = 0;
};

bool threading_allowed_file(const std::string& rel) {
  static const std::array<const char*, 4> kAllowed = {
      "src/sim/thread_pool.hpp",
      "src/sim/thread_pool.cpp",
      "src/scenario/trial_runner.hpp",
      "src/scenario/trial_runner.cpp",
  };
  for (const char* a : kAllowed) {
    if (rel == a) return true;
  }
  return false;
}

bool is_rng_module_file(const SourceFile& f) {
  return f.rel == "src/sim/rng.hpp" || f.rel == "src/sim/rng.cpp";
}

bool std_qualified(const std::vector<Token>& t, std::size_t i) {
  return i >= 2 && is_punct(t[i - 1], "::") && is_ident(t[i - 2], "std");
}

// rule wall-clock: host-clock reads. The rule is hard: simulated
// output is diffed byte-for-byte across runs and host time is
// perfbench's alone, so no suppression — not even skip-file — applies.
void rule_wall_clock(const SourceFile& f, std::vector<RawFinding>& out) {
  static const std::set<std::string> kClocks = {
      "system_clock", "steady_clock", "high_resolution_clock"};
  const auto& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::Ident) continue;
    if (kClocks.count(t[i].text) != 0) {
      out.push_back({"wall-clock", t[i].line});
      continue;
    }
    if ((t[i].text == "gettimeofday" || t[i].text == "clock_gettime") &&
        i + 1 < t.size() && is_punct(t[i + 1], "(")) {
      out.push_back({"wall-clock", t[i].line});
      continue;
    }
    if (t[i].text == "time" && i + 3 < t.size() && is_punct(t[i + 1], "(") &&
        is_punct(t[i + 3], ")") &&
        (is_ident(t[i + 2], "nullptr") || is_ident(t[i + 2], "NULL") ||
         (t[i + 2].kind == TokKind::Number && t[i + 2].text == "0"))) {
      out.push_back({"wall-clock", t[i].line});
    }
  }
}

// rule libc-rand: C-library entropy. A member call (`obj.random()`) or
// a non-std qualification (`mylib::rand()`) is fine.
void rule_libc_rand(const SourceFile& f, std::vector<RawFinding>& out) {
  static const std::set<std::string> kFns = {"rand", "srand", "rand_r",
                                             "drand48", "random"};
  const auto& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::Ident || kFns.count(t[i].text) == 0) continue;
    if (!is_punct(t[i + 1], "(")) continue;
    if (i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"))) {
      continue;
    }
    if (i > 0 && is_punct(t[i - 1], "::") && !std_qualified(t, i)) continue;
    out.push_back({"libc-rand", t[i].line});
  }
}

// rule random-device: std::random_device seeds differ per run.
void rule_random_device(const SourceFile& f, std::vector<RawFinding>& out) {
  const auto& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_ident(t[i], "random_device") && std_qualified(t, i)) {
      out.push_back({"random-device", t[i].line});
    }
  }
}

// rule pointer-key: map/set ordered (or hashed) on a raw pointer key —
// iteration order follows allocation addresses.
void rule_pointer_key(const SourceFile& f, std::vector<RawFinding>& out) {
  static const std::set<std::string> kMapLike = {"map", "unordered_map"};
  static const std::set<std::string> kSetLike = {"set", "unordered_set"};
  const auto& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::Ident) continue;
    const bool map_like = kMapLike.count(t[i].text) != 0;
    const bool set_like = kSetLike.count(t[i].text) != 0;
    if ((!map_like && !set_like) || !is_punct(t[i + 1], "<")) continue;
    const std::size_t close = match_angle(t, i + 1);
    if (close >= t.size()) continue;
    // First top-level template argument: up to the first depth-1 comma.
    std::size_t arg_end = close;
    int angle = 1;
    int paren = 0;
    for (std::size_t k = i + 2; k < close; ++k) {
      if (t[k].kind != TokKind::Punct || t[k].text.size() != 1) continue;
      const char c = t[k].text[0];
      if (c == '(' || c == '[' || c == '{') ++paren;
      if (c == ')' || c == ']' || c == '}') --paren;
      if (paren != 0) continue;
      if (c == '<') ++angle;
      if (c == '>') --angle;
      if (c == ',' && angle == 1) {
        arg_end = k;
        break;
      }
    }
    if (map_like && arg_end == close) continue;  // map with one arg: not ours
    if (arg_end > i + 2 && is_punct(t[arg_end - 1], "*")) {
      out.push_back({"pointer-key", t[i].line});
    }
  }
}

// rule threading: the simulator core is single-threaded by contract;
// only the thread pool and the trial fan-out may use std threading.
void rule_threading(const SourceFile& f, std::vector<RawFinding>& out) {
  static const std::set<std::string> kPrims = {
      "thread",         "jthread",
      "async",          "mutex",
      "timed_mutex",    "recursive_mutex",
      "shared_mutex",   "condition_variable",
      "condition_variable_any",
      "future",         "promise",
      "packaged_task",  "latch",
      "barrier",        "stop_token",
      "stop_source",    "counting_semaphore",
      "binary_semaphore",
      "scoped_lock",    "unique_lock",
      "lock_guard",     "shared_lock",
      "call_once",      "once_flag",
      "this_thread"};
  if (threading_allowed_file(f.rel)) return;
  const auto& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::Ident || !std_qualified(t, i)) continue;
    if (kPrims.count(t[i].text) != 0 ||
        t[i].text.rfind("atomic", 0) == 0) {
      out.push_back({"threading", t[i].line});
    }
  }
}

// rule shared-rng: a static/global Rng, or an Rng held by ref/pointer
// as a member-style declaration. Parameters are fine (they borrow
// within one trial's call stack).
void rule_shared_rng(const SourceFile& f, std::vector<RawFinding>& out) {
  const auto& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::Ident) continue;
    // static/thread_local/inline [tmg::][sim::] Rng
    if (t[i].text == "static" || t[i].text == "thread_local" ||
        t[i].text == "inline") {
      std::size_t j = i + 1;
      while (j + 1 < t.size() &&
             (is_ident(t[j], "tmg") || is_ident(t[j], "sim")) &&
             is_punct(t[j + 1], "::")) {
        j += 2;
      }
      if (j < t.size() && is_ident(t[j], "Rng")) {
        out.push_back({"shared-rng", t[i].line});
      }
      continue;
    }
    // Statement-start `Rng [&*] name ;|=` (possibly tmg::/sim::
    // qualified). Statement start == preceded by ; { } or an access
    // label's colon.
    if (t[i].text != "Rng") continue;
    std::size_t start = i;
    while (start >= 2 && is_punct(t[start - 1], "::") &&
           (is_ident(t[start - 2], "tmg") || is_ident(t[start - 2], "sim"))) {
      start -= 2;
    }
    if (start > 0 && !is_punct(t[start - 1], ";") &&
        !is_punct(t[start - 1], "{") && !is_punct(t[start - 1], "}") &&
        !is_punct(t[start - 1], ":")) {
      continue;
    }
    if (i + 3 >= t.size()) continue;
    if (!is_punct(t[i + 1], "&") && !is_punct(t[i + 1], "*")) continue;
    if (t[i + 2].kind != TokKind::Ident) continue;
    const bool terminated =
        is_punct(t[i + 3], ";") ||
        (is_punct(t[i + 3], "=") &&
         (i + 4 >= t.size() || !is_punct(t[i + 4], "=")));
    if (terminated) out.push_back({"shared-rng", t[i].line});
  }
}

// rule unordered-iter: range-for directly over an unordered_{map,set}
// member (declared in this file or its header/impl sibling).
void rule_unordered_iter(const SourceFile& f, const SourceFile* sibling,
                         std::vector<RawFinding>& out) {
  std::set<std::string> members = harvest_unordered_members(f.tokens);
  if (sibling != nullptr) {
    for (const auto& m : harvest_unordered_members(sibling->tokens)) {
      members.insert(m);
    }
  }
  if (members.empty()) return;
  const auto& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i], "for") || !is_punct(t[i + 1], "(")) continue;
    const std::size_t close = match_balanced(t, i + 1);
    if (close >= t.size() || close < i + 4) continue;
    // `... : [*]name)` — the ranged expression must be a bare
    // identifier (a member access like obj.m_ never matches).
    if (t[close - 1].kind != TokKind::Ident) continue;
    const std::size_t before = close - 2;
    const bool direct =
        is_punct(t[before], ":") ||
        (is_punct(t[before], "*") && before > 0 &&
         is_punct(t[before - 1], ":"));
    if (direct && members.count(t[close - 1].text) != 0) {
      out.push_back({"unordered-iter", t[close - 1].line});
    }
  }
}

// rule cache-coherence: a file pair that defines a cache and touches
// the topology must reference the graph's mutation epoch, or delegate
// to the epoch-keyed topo::PathCache (DESIGN.md §8).
void rule_cache_coherence(const SourceFile& f, const SourceFile* sibling,
                          std::vector<RawFinding>& out) {
  const auto scan = [](const std::vector<Token>& t, bool& topo, bool& epoch) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::Ident) continue;
      if (t[i].text == "TopologyGraph" ||
          (t[i].text == "topology" && i + 1 < t.size() &&
           is_punct(t[i + 1], "("))) {
        topo = true;
      }
      if (t[i].text == "PathCache" || t[i].text.rfind("epoch", 0) == 0) {
        epoch = true;
      }
    }
  };
  bool topo = false;
  bool epoch = false;
  scan(f.tokens, topo, epoch);
  if (sibling != nullptr) scan(sibling->tokens, topo, epoch);
  if (!topo || epoch) return;
  const auto& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::Ident) continue;
    const std::string& s = t[i].text;
    if (is_ident(t[i], "class") && i + 1 < t.size() &&
        t[i + 1].kind == TokKind::Ident &&
        t[i + 1].text.size() >= 5 &&
        t[i + 1].text.compare(t[i + 1].text.size() - 5, 5, "Cache") == 0) {
      out.push_back({"cache-coherence", t[i].line});
      continue;
    }
    if (s.size() >= 6 && s.compare(s.size() - 6, 6, "cache_") == 0 &&
        i + 1 < t.size() &&
        (is_punct(t[i + 1], ";") || is_punct(t[i + 1], "{") ||
         is_punct(t[i + 1], "="))) {
      out.push_back({"cache-coherence", t[i].line});
    }
  }
}

}  // namespace

void run_determinism_pass(const SourceTree& tree,
                          std::vector<Finding>& findings) {
  for (const auto& f : tree.files) {
    if (is_rng_module_file(f)) continue;  // the sanctioned entropy source
    const SourceFile* sibling = tree.sibling(f);
    std::vector<RawFinding> raw;
    rule_wall_clock(f, raw);
    rule_libc_rand(f, raw);
    rule_random_device(f, raw);
    rule_pointer_key(f, raw);
    rule_threading(f, raw);
    rule_shared_rng(f, raw);
    rule_unordered_iter(f, sibling, raw);
    rule_cache_coherence(f, sibling, raw);

    std::set<std::pair<int, std::string>> seen;
    for (const auto& r : raw) {
      if (!seen.emplace(r.line, r.rule).second) continue;
      if (r.rule == "wall-clock") {
        findings.push_back(
            Finding{f.rel, r.line, r.rule, "(hard) " + f.excerpt(r.line)});
        continue;
      }
      if (f.suppressions.skip_file) {
        f.suppressions.skip_file_used = true;
        continue;
      }
      if (f.suppressions.allowed(r.rule, r.line)) continue;
      findings.push_back(Finding{f.rel, r.line, r.rule, f.excerpt(r.line)});
    }
  }
}

}  // namespace tmg::tmglint
