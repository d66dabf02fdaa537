// tmglint: pipeline wiring spec.
//
// The spec files (tools/tmglint/pipeline_spec_<profile>.txt, one per
// ControllerProfile) are the checked-in source of truth for the
// controller's listener chain: one line per registration,
// `<priority> <name> <subscriptions>`, in dispatch order. Priorities
// are either integers or a band expression `B+SN` (base B, step S per
// installed module — the defense band); names are either literal
// listener names or `<dynamic>` for adapters whose name is a runtime
// value; subscriptions are `|`-joined MessageType identifiers in
// sorted order, `-` when none could be extracted.
//
// The pipeline pass reconstructs the same structure from the sources —
// instantiating the PipelineLayout slot table once per harvested
// `<key>_profile()` override set, dropping negative (compiled-out)
// slots — and diffs each against its file; tests/tmglint_test.cpp
// additionally diffs every spec against the chain a live
// MessagePipeline reports at runtime under that profile.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace tmg::tmglint {

struct SpecEntry {
  std::string priority;           // "0", "900", or "100+10N"
  std::string name;               // "link-discovery" or "<dynamic>"
  std::vector<std::string> subs;  // sorted MessageType identifiers

  [[nodiscard]] bool operator==(const SpecEntry& o) const {
    return priority == o.priority && name == o.name && subs == o.subs;
  }
};

struct PipelineSpec {
  std::vector<SpecEntry> entries;  // dispatch order
};

/// One instantiated chain: the layout of `<key>_profile()` applied to
/// the registration sites. `key` is the profile's CLI name.
struct ProfileSpec {
  std::string key;
  PipelineSpec spec;
};

/// Render one entry as a spec line.
[[nodiscard]] std::string to_line(const SpecEntry& e);

/// Canonical file contents (header comment + one line per entry). The
/// header names `profile_key` and points the regeneration command at
/// that profile's spec file.
[[nodiscard]] std::string emit_pipeline_spec(const PipelineSpec& spec,
                                             const std::string& profile_key);

/// Parse a spec file. Returns nullopt (with *error set) on I/O or
/// syntax problems.
[[nodiscard]] std::optional<PipelineSpec> parse_pipeline_spec(
    const std::string& path, std::string* error);

/// Sort key for dispatch order: band entries order by their base, ties
/// break on name (mirrors MessagePipeline's (priority, name) order).
void sort_spec_entries(std::vector<SpecEntry>& entries);

}  // namespace tmg::tmglint
