// Pipeline-wiring extraction.
//
// Statically reconstructs the controller's MessagePipeline chain from
// src/ctrl + src/defense and diffs it against the checked-in specs
// (tools/tmglint/pipeline_spec_<profile>.txt). What the regex linter
// could never do, this pass does across files:
//
//   * fold the PipelineLayout slot table into concrete chain positions:
//     struct defaults (`int verdict_gate = 900;`) overlaid with each
//     `<key>_profile()` body's `p.layout.<slot> = <value>;` overrides,
//     plus the locally-computed defense-band priority
//     `layout.defense_base + layout.defense_step * N`;
//   * resolve each registered listener expression to its class —
//     `std::make_unique<CoreListener>(...)` directly, `*links_` through
//     the `std::unique_ptr<LinkDiscoveryService> links_;` member
//     declaration — then to the string its `name()` returns, chasing
//     `return kLinkDiscoveryServiceName;` through the constant table;
//   * pull each listener's subscription mask out of its
//     `subscriptions()` body, falling back to the profile's
//     defense_subscriptions mask for the defense-band adapter (whose
//     mask is a constructor argument, not a literal);
//   * instantiate the chain once per profile, dropping negative slots
//     (OpenDaylight compiles the verdict gate out entirely);
//   * flag duplicate chain priorities (per profile) and
//     MessageListener subclasses that are never registered at all.
//
// Each profile's chain is diffed against
// <root>/tools/tmglint/pipeline_spec_<key>.txt; the test fixtures
// mirror that layout.
//
// Findings are architectural and not suppressible: fix the wiring, or
// regenerate the specs if the change is deliberate
// (`tmglint --emit-pipeline-spec --profile <key>`).
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analyzer.hpp"
#include "matcher.hpp"

namespace tmg::tmglint {

namespace {

struct Registration {
  std::string file;
  int line = 0;
  std::string class_name;
  bool is_band = false;
  long priority = 0;       // literal priority (no `layout.` slot)
  std::string field;       // fixed slot taken from `layout.<field>`
  std::string base_field;  // band base/step taken from `layout.<field>`
  std::string step_field;
};

/// One harvested `<key>_profile()` function: which layout slots it
/// overrides and (if it reassigns defense_subscriptions) which
/// MessageType identifiers the new mask names.
struct ProfileInfo {
  std::string key;  // "floodlight" from floodlight_profile()
  std::map<std::string, long> layout_overrides;
  std::set<std::string> subs_override;  // empty = keep the default
};

struct Extraction {
  std::map<std::string, std::string> string_consts;
  std::vector<ClassInfo> classes;
  std::map<std::string, std::string> members;  // member_ -> Type
  std::vector<Registration> regs;
  std::map<std::string, long> layout_defaults;  // PipelineLayout fields
  std::vector<ProfileInfo> profiles;            // definition order
  std::set<std::string> default_subs;  // ControllerProfile default mask
};

/// The scanned file declaring class `c` (the harvest runs over the
/// concatenated stream, which keeps token lines but not file names).
std::string declaring_file(const std::vector<const SourceFile*>& scanned,
                           const ClassInfo& c) {
  for (const SourceFile* f : scanned) {
    for (const Token& tok : f->tokens) {
      if (tok.line == c.line && is_ident(tok, c.name.c_str())) return f->rel;
    }
  }
  return "";
}

const ClassInfo* find_class(const Extraction& ex, const std::string& name) {
  for (const auto& c : ex.classes) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

bool derives_message_listener(const Extraction& ex, const ClassInfo& c,
                              int depth = 0) {
  if (depth > 8) return false;
  for (const auto& base : c.bases) {
    if (base == "MessageListener") return true;
    const ClassInfo* bc = find_class(ex, base);
    if (bc != nullptr && derives_message_listener(ex, *bc, depth + 1)) {
      return true;
    }
  }
  return false;
}

/// Find `struct <name> {` and return the [body-open, body-close] span,
/// or nullopt when the struct is not declared in this stream.
std::optional<std::pair<std::size_t, std::size_t>> struct_body(
    const std::vector<Token>& t, const char* name) {
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!is_ident(t[i], "struct") || !is_ident(t[i + 1], name) ||
        !is_punct(t[i + 2], "{")) {
      continue;
    }
    const std::size_t close = match_balanced(t, i + 2);
    if (close >= t.size()) return std::nullopt;
    return std::make_pair(i + 2, close);
  }
  return std::nullopt;
}

/// `int <name> = [-]<num>;` declarations inside `struct PipelineLayout`:
/// the slot table's defaults.
std::map<std::string, long> harvest_layout_defaults(
    const std::vector<Token>& t) {
  std::map<std::string, long> out;
  const auto body = struct_body(t, "PipelineLayout");
  if (!body) return out;
  for (std::size_t k = body->first + 1; k + 3 < body->second; ++k) {
    if (!is_ident(t[k], "int") || t[k + 1].kind != TokKind::Ident ||
        !is_punct(t[k + 2], "=")) {
      continue;
    }
    long sign = 1;
    std::size_t v = k + 3;
    if (is_punct(t[v], "-")) {
      sign = -1;
      ++v;
    }
    if (v >= body->second || t[v].kind != TokKind::Number ||
        v + 1 >= body->second || !is_punct(t[v + 1], ";")) {
      continue;
    }
    out[t[k + 1].text] = sign * std::stol(t[v].text, nullptr, 0);
  }
  return out;
}

/// The MessageType identifiers named by a `defense_subscriptions = ...;`
/// initializer/assignment starting at the `=` token.
std::set<std::string> subs_idents(const std::vector<Token>& t,
                                  std::size_t eq, std::size_t limit) {
  std::set<std::string> out;
  for (std::size_t k = eq + 1; k < limit && !is_punct(t[k], ";"); ++k) {
    if (t[k].kind == TokKind::Ident && k >= 2 && is_punct(t[k - 1], "::") &&
        is_ident(t[k - 2], "MessageType")) {
      out.insert(t[k].text);
    }
  }
  return out;
}

/// The default defense mask from `struct ControllerProfile`'s
/// `defense_subscriptions = MessageType::A | ...;` member initializer.
std::set<std::string> harvest_default_subscriptions(
    const std::vector<Token>& t) {
  const auto body = struct_body(t, "ControllerProfile");
  if (!body) return {};
  for (std::size_t k = body->first + 1; k + 1 < body->second; ++k) {
    if (is_ident(t[k], "defense_subscriptions") && is_punct(t[k + 1], "=")) {
      return subs_idents(t, k + 1, body->second);
    }
  }
  return {};
}

/// `ControllerProfile <key>_profile() { ... }` definitions: each body's
/// `layout.<slot> = [-]<num>;` and `defense_subscriptions = ...;`
/// statements become that profile's overrides.
std::vector<ProfileInfo> harvest_profiles(const std::vector<Token>& t) {
  std::vector<ProfileInfo> out;
  constexpr const char* kSuffix = "_profile";
  for (std::size_t i = 0; i + 4 < t.size(); ++i) {
    if (!is_ident(t[i], "ControllerProfile") ||
        t[i + 1].kind != TokKind::Ident || !is_punct(t[i + 2], "(") ||
        !is_punct(t[i + 3], ")") || !is_punct(t[i + 4], "{")) {
      continue;
    }
    const std::string& fn = t[i + 1].text;
    if (fn.size() <= std::string(kSuffix).size() ||
        fn.compare(fn.size() - 8, 8, kSuffix) != 0) {
      continue;
    }
    const std::size_t close = match_balanced(t, i + 4);
    if (close >= t.size()) continue;
    ProfileInfo info;
    info.key = fn.substr(0, fn.size() - 8);
    for (std::size_t k = i + 5; k < close; ++k) {
      if (is_ident(t[k], "layout") && k + 4 < close &&
          is_punct(t[k + 1], ".") && t[k + 2].kind == TokKind::Ident &&
          is_punct(t[k + 3], "=")) {
        long sign = 1;
        std::size_t v = k + 4;
        if (is_punct(t[v], "-") && v + 1 < close) {
          sign = -1;
          ++v;
        }
        if (t[v].kind == TokKind::Number) {
          info.layout_overrides[t[k + 2].text] =
              sign * std::stol(t[v].text, nullptr, 0);
        }
      }
      if (is_ident(t[k], "defense_subscriptions") && k + 1 < close &&
          is_punct(t[k + 1], "=")) {
        info.subs_override = subs_idents(t, k + 1, close);
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

/// Resolve a priority argument [b, e): a literal, a `layout.<field>`
/// slot reference, a local variable assigned from a band expression,
/// or a band expression inline. Returns false when unresolvable.
bool resolve_priority(const std::vector<Token>& t, std::size_t b,
                      std::size_t e, std::size_t call_idx,
                      Registration& reg) {
  const auto band_from_expr = [&](std::size_t xb, std::size_t xe) -> bool {
    // layout.defense_base + layout.defense_step * <anything>.
    std::vector<std::string> fields;
    bool plus = false;
    bool times = false;
    for (std::size_t k = xb; k < xe; ++k) {
      if (is_ident(t[k], "layout") && k + 2 < xe && is_punct(t[k + 1], ".") &&
          t[k + 2].kind == TokKind::Ident) {
        fields.push_back(t[k + 2].text);
        k += 2;
        continue;
      }
      if (is_punct(t[k], "+")) plus = true;
      if (is_punct(t[k], "*")) times = true;
    }
    if (!plus || !times || fields.size() != 2) return false;
    reg.is_band = true;
    reg.base_field = fields[0];
    reg.step_field = fields[1];
    return true;
  };

  if (e == b + 1 && t[b].kind == TokKind::Number) {
    reg.priority = std::stol(t[b].text, nullptr, 0);
    return true;
  }
  // `layout.<field>`: a symbolic slot, resolved per profile.
  if (e == b + 3 && is_ident(t[b], "layout") && is_punct(t[b + 1], ".") &&
      t[b + 2].kind == TokKind::Ident) {
    reg.field = t[b + 2].text;
    return true;
  }
  if (e == b + 1 && t[b].kind == TokKind::Ident) {
    // A local variable: look backwards in the enclosing region for
    // `<name> = <expr> ;` and try the band shape on the expression.
    const std::string& var = t[b].text;
    for (std::size_t k = call_idx; k-- > 0;) {
      if (call_idx - k > 600) break;  // same function, not same file
      if (!is_ident(t[k], var.c_str()) || k + 1 >= t.size() ||
          !is_punct(t[k + 1], "=")) {
        continue;
      }
      std::size_t end = k + 2;
      while (end < t.size() && !is_punct(t[end], ";")) ++end;
      if (band_from_expr(k + 2, end)) return true;
    }
    return false;
  }
  return band_from_expr(b, e);
}

/// Resolve a listener argument [b, e) to a class name:
/// `std::make_unique<T>(...)` or `*member_`.
std::string resolve_listener_class(const Extraction& ex,
                                   const std::vector<Token>& t, std::size_t b,
                                   std::size_t e) {
  for (std::size_t k = b; k + 2 < e; ++k) {
    if (is_ident(t[k], "make_unique") && is_punct(t[k + 1], "<")) {
      const std::size_t close = match_angle(t, k + 1);
      if (close >= t.size()) return "";
      std::string last;
      for (std::size_t m = k + 2; m < close; ++m) {
        if (t[m].kind == TokKind::Ident) last = t[m].text;
      }
      return last;
    }
  }
  if (e - b == 2 && is_punct(t[b], "*") && t[b + 1].kind == TokKind::Ident) {
    const auto it = ex.members.find(t[b + 1].text);
    if (it != ex.members.end()) return it->second;
  }
  if (e - b == 1 && t[b].kind == TokKind::Ident) {
    const auto it = ex.members.find(t[b].text);
    if (it != ex.members.end()) return it->second;
  }
  return "";
}

/// The listener name a class reports, chased through the constant
/// table; "<dynamic>" when name() returns a runtime value.
std::string resolve_name(const Extraction& ex, const ClassInfo& c) {
  if (!c.name_literal.empty()) return c.name_literal;
  if (!c.name_constant.empty()) {
    const auto it = ex.string_consts.find(c.name_constant);
    if (it != ex.string_consts.end()) return it->second;
  }
  return "<dynamic>";
}

/// A registration's resolved slot under one profile's layout, or
/// nullopt when it references a slot the layout never declares.
std::optional<long> resolve_slot(const Extraction& ex,
                                 const ProfileInfo& profile,
                                 const std::string& field) {
  const auto ov = profile.layout_overrides.find(field);
  if (ov != profile.layout_overrides.end()) return ov->second;
  const auto def = ex.layout_defaults.find(field);
  if (def != ex.layout_defaults.end()) return def->second;
  return std::nullopt;
}

/// Instantiate the registration list under one profile's layout:
/// resolve symbolic slots, drop negative (compiled-out) ones, run the
/// per-profile duplicate check, and assemble the sorted spec.
PipelineSpec instantiate_profile(const Extraction& ex,
                                 const ProfileInfo& profile,
                                 std::vector<Finding>& findings) {
  const std::string tag = " [profile " + profile.key + "]";
  struct Resolved {
    const Registration* reg;
    bool is_band = false;
    long priority = 0;
    long base = 0;
    long step = 0;
  };
  std::vector<Resolved> resolved;
  for (const auto& r : ex.regs) {
    Resolved rr;
    rr.reg = &r;
    rr.is_band = r.is_band;
    const auto slot_or_flag =
        [&](const std::string& field) -> std::optional<long> {
      const auto slot = resolve_slot(ex, profile, field);
      if (!slot) {
        findings.push_back(Finding{r.file, r.line, "pipeline-wiring",
                                   "layout." + field +
                                       " has no PipelineLayout default or " +
                                       profile.key + "_profile() override"});
      }
      return slot;
    };
    if (r.is_band) {
      const auto base = slot_or_flag(r.base_field);
      const auto step = slot_or_flag(r.step_field);
      if (!base || !step) continue;
      rr.base = *base;
      rr.step = *step;
      if (rr.base < 0) continue;  // band compiled out under this profile
    } else {
      const auto slot = r.field.empty() ? std::optional<long>{r.priority}
                                        : slot_or_flag(r.field);
      if (!slot) continue;
      rr.priority = *slot;
      if (rr.priority < 0) continue;  // slot compiled out
    }
    resolved.push_back(rr);
  }

  // Duplicate fixed priorities: the chain tie-breaks on name, so two
  // listeners at one priority make dispatch order depend on naming —
  // always a wiring accident here.
  std::map<long, const Registration*> by_priority;
  for (const auto& rr : resolved) {
    if (rr.is_band) continue;
    const auto [it, fresh] = by_priority.emplace(rr.priority, rr.reg);
    if (!fresh) {
      findings.push_back(Finding{
          rr.reg->file, rr.reg->line, "pipeline-wiring",
          "duplicate chain priority " + std::to_string(rr.priority) + tag +
              " (also registered at " + it->second->file + ":" +
              std::to_string(it->second->line) + ")"});
    }
  }

  PipelineSpec spec;
  for (const auto& rr : resolved) {
    const ClassInfo* c = find_class(ex, rr.reg->class_name);
    SpecEntry e;
    e.priority = rr.is_band ? std::to_string(rr.base) + "+" +
                                  std::to_string(rr.step) + "N"
                            : std::to_string(rr.priority);
    e.name = resolve_name(ex, *c);
    e.subs.assign(c->subscriptions.begin(), c->subscriptions.end());
    if (rr.is_band && e.subs.empty()) {
      // The defense-band adapter's mask is a constructor argument (the
      // profile's defense_subscriptions), not a literal in its
      // subscriptions() body — substitute the profile mask.
      const auto& subs = profile.subs_override.empty()
                             ? ex.default_subs
                             : profile.subs_override;
      e.subs.assign(subs.begin(), subs.end());
    }
    spec.entries.push_back(std::move(e));
  }
  sort_spec_entries(spec.entries);
  return spec;
}

void diff_against_spec(const ProfileSpec& ps, const std::string& path,
                       const std::string& rel,
                       std::vector<Finding>& findings) {
  std::string error;
  const auto spec = parse_pipeline_spec(path, &error);
  if (!spec) {
    findings.push_back(Finding{rel, 0, "pipeline-wiring", error});
    return;
  }
  const std::string regen = "--emit-pipeline-spec --profile " + ps.key;
  const std::size_t n =
      std::max(spec->entries.size(), ps.spec.entries.size());
  for (std::size_t i = 0; i < n; ++i) {
    const bool have_spec = i < spec->entries.size();
    const bool have_src = i < ps.spec.entries.size();
    if (have_spec && have_src &&
        spec->entries[i] == ps.spec.entries[i]) {
      continue;
    }
    findings.push_back(Finding{
        rel, static_cast<int>(i + 1), "pipeline-wiring",
        "chain[" + std::to_string(i) + "] spec " +
            (have_spec ? "`" + to_line(spec->entries[i]) + "`"
                       : "(missing)") +
            " != source " +
            (have_src ? "`" + to_line(ps.spec.entries[i]) + "`"
                      : "(missing)") +
            " — fix the wiring or regenerate with " + regen});
  }
}

}  // namespace

std::vector<ProfileSpec> run_pipeline_pass(const SourceTree& tree,
                                           bool skip_spec_diff,
                                           std::vector<Finding>& findings) {
  // Concatenate the controller-layer token streams so cross-file
  // declarations (class in .hpp, name() in .cpp, constants in a third
  // header) resolve in one harvest. A `;` separator keeps an unbalanced
  // file from bleeding into the next.
  Extraction ex;
  std::vector<Token> all;
  std::vector<const SourceFile*> scanned;
  for (const auto& f : tree.files) {
    if (!f.in_module("ctrl") && !f.in_module("defense")) continue;
    scanned.push_back(&f);
    all.insert(all.end(), f.tokens.begin(), f.tokens.end());
    all.push_back(Token{TokKind::Punct, ";", 0});
  }
  ex.string_consts = harvest_string_constants(all);
  ex.classes = harvest_classes(all);
  ex.members = harvest_unique_ptr_members(all);
  ex.layout_defaults = harvest_layout_defaults(all);
  ex.profiles = harvest_profiles(all);
  ex.default_subs = harvest_default_subscriptions(all);

  // Registration sites, located per file for accurate line numbers.
  for (const SourceFile* fp : scanned) {
    const auto& t = fp->tokens;
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
      if (!is_ident(t[i], "pipeline_") || !is_punct(t[i + 1], ".")) continue;
      if (!is_ident(t[i + 2], "add") && !is_ident(t[i + 2], "add_owned")) {
        continue;
      }
      if (!is_punct(t[i + 3], "(")) continue;
      const auto args = split_args(t, i + 3);
      Registration reg;
      reg.file = fp->rel;
      reg.line = t[i].line;
      if (args.size() != 2) {
        findings.push_back(Finding{fp->rel, reg.line, "pipeline-wiring",
                                   "cannot parse registration arguments: " +
                                       fp->excerpt(reg.line)});
        continue;
      }
      if (!resolve_priority(t, args[0].first, args[0].second, i, reg)) {
        findings.push_back(Finding{
            fp->rel, reg.line, "pipeline-wiring",
            "cannot statically resolve the registration priority: " +
                fp->excerpt(reg.line)});
        continue;
      }
      reg.class_name =
          resolve_listener_class(ex, t, args[1].first, args[1].second);
      if (reg.class_name.empty() ||
          find_class(ex, reg.class_name) == nullptr) {
        findings.push_back(Finding{
            fp->rel, reg.line, "pipeline-wiring",
            "cannot resolve the registered listener to a class: " +
                fp->excerpt(reg.line)});
        continue;
      }
      ex.regs.push_back(std::move(reg));
    }
  }

  // Every concrete MessageListener subclass in the controller layer
  // must be registered somewhere; a listener class nobody adds to the
  // chain is dead wiring (or a forgotten registration).
  std::set<std::string> registered;
  for (const auto& r : ex.regs) registered.insert(r.class_name);
  for (const auto& c : ex.classes) {
    if (c.name == "MessageListener" || !derives_message_listener(ex, c)) {
      continue;
    }
    if (registered.count(c.name) == 0) {
      findings.push_back(Finding{
          declaring_file(scanned, c), c.line, "pipeline-wiring",
          "listener class " + c.name +
              " derives MessageListener but is never registered with "
              "the pipeline"});
    }
  }

  // Registrations with no `<key>_profile()` to lay them out cannot be
  // instantiated (or checked) at all.
  if (!ex.regs.empty() && ex.profiles.empty()) {
    findings.push_back(Finding{
        ex.regs.front().file, ex.regs.front().line, "pipeline-wiring",
        "no `ControllerProfile <key>_profile()` definition to instantiate "
        "the chain under"});
  }

  std::vector<ProfileSpec> out;
  for (const auto& profile : ex.profiles) {
    ProfileSpec ps;
    ps.key = profile.key;
    ps.spec = instantiate_profile(ex, profile, findings);
    out.push_back(std::move(ps));
  }

  if (!skip_spec_diff) {
    for (const auto& ps : out) {
      const std::string rel = "tools/tmglint/pipeline_spec_" + ps.key + ".txt";
      diff_against_spec(ps, tree.root + "/" + rel, rel, findings);
    }
  }
  return out;
}

}  // namespace tmg::tmglint
