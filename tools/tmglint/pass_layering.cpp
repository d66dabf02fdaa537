// Include-layering DAG.
//
// The module layer order (DESIGN.md §11; mirrors the library edges in
// src/CMakeLists.txt):
//
//   rank 0  sim, crypto, check/assert.*     (leaf utilities)
//   rank 1  stats, net
//   rank 2  of
//   rank 3  topo
//   rank 4  obs      — floating: includable from ANY module, but may
//                      itself include only sim/stats/check-assert, so
//                      instrumenting a layer can never create a cycle
//   rank 5  ctrl
//   rank 6  defense, ids, attack            (peers; no cross-includes)
//   rank 7  check/invariants.*              (audits the layers below)
//   rank 8  scenario
//
// A file may include its own module and any strictly lower rank.
// Same-rank peers (defense/ids/attack) may not include each other:
// cross-module defense coordination goes through the pipeline and the
// Controller, not headers. On top of the rank rules the pass
// rejects any cycle in the file-level include graph, so a future
// same-rank exception can never quietly become circular.
//
// These findings are architectural and not suppressible.
#include <map>
#include <string>
#include <vector>

#include "analyzer.hpp"

namespace tmg::tmglint {

namespace {

const std::map<std::string, int>& rank_table() {
  static const std::map<std::string, int> kRanks = {
      {"sim", 0},   {"crypto", 0}, {"check_assert", 0},
      {"stats", 1}, {"net", 1},
      {"of", 2},
      {"topo", 3},
      {"obs", 4},
      {"ctrl", 5},
      {"defense", 6}, {"ids", 6}, {"attack", 6},
      {"check_invariants", 7},
      {"scenario", 8},
  };
  return kRanks;
}

/// Modules obs may include: instrumentation must stay a leaf.
bool obs_may_include(const std::string& target) {
  return target == "sim" || target == "stats" || target == "check_assert" ||
         target == "obs";
}

struct Edge {
  std::size_t from = 0;  // index into tree.files
  std::size_t to = 0;
  int line = 0;
};

}  // namespace

void run_layering_pass(const SourceTree& tree,
                       std::vector<Finding>& findings) {
  const auto& ranks = rank_table();
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < tree.files.size(); ++i) {
    index[tree.files[i].rel] = i;
  }

  std::vector<std::vector<Edge>> graph(tree.files.size());
  for (std::size_t i = 0; i < tree.files.size(); ++i) {
    const SourceFile& f = tree.files[i];
    const auto self = ranks.find(f.module);
    if (self == ranks.end()) {
      findings.push_back(
          Finding{f.rel, 1, "layering",
                  "module '" + f.module +
                      "' is not in the layer table — add it to "
                      "tools/tmglint/pass_layering.cpp deliberately"});
      continue;
    }
    for (const auto& inc : f.includes) {
      const std::string target_rel = "src/" + inc.target;
      const std::string target_mod = module_of(target_rel);
      const auto it = index.find(target_rel);
      if (it != index.end()) graph[i].push_back(Edge{i, it->second, inc.line});
      if (target_mod.empty()) continue;  // not a first-party module path
      const auto tgt = ranks.find(target_mod);
      if (tgt == ranks.end()) {
        findings.push_back(Finding{
            f.rel, inc.line, "layering",
            "include of unknown module '" + target_mod + "' (" + inc.target +
                ")"});
        continue;
      }
      if (f.module == "obs") {
        if (!obs_may_include(target_mod)) {
          findings.push_back(Finding{
              f.rel, inc.line, "layering",
              "obs is a floating leaf: it may include only sim/stats/"
              "check-assert, not '" + inc.target + "'"});
        }
        continue;
      }
      if (target_mod == f.module || target_mod == "obs") continue;
      if (tgt->second >= self->second) {
        findings.push_back(Finding{
            f.rel, inc.line, "layering",
            "module '" + f.module + "' (layer " +
                std::to_string(self->second) + ") may not include '" +
                target_mod + "' (layer " + std::to_string(tgt->second) +
                "): " + inc.target});
      }
    }
  }

  // File-level cycle rejection (iterative DFS, deterministic order).
  enum class Color { White, Grey, Black };
  std::vector<Color> color(tree.files.size(), Color::White);
  for (std::size_t start = 0; start < tree.files.size(); ++start) {
    if (color[start] != Color::White) continue;
    struct Frame {
      std::size_t node;
      std::size_t next = 0;
    };
    std::vector<Frame> stack{{start, 0}};
    color[start] = Color::Grey;
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (top.next >= graph[top.node].size()) {
        color[top.node] = Color::Black;
        stack.pop_back();
        continue;
      }
      const Edge& e = graph[top.node][top.next++];
      if (color[e.to] == Color::Grey) {
        // Reconstruct the cycle path from the DFS stack.
        std::string cycle;
        bool in_cycle = false;
        for (const Frame& fr : stack) {
          if (fr.node == e.to) in_cycle = true;
          if (in_cycle) cycle += tree.files[fr.node].rel + " -> ";
        }
        cycle += tree.files[e.to].rel;
        findings.push_back(Finding{tree.files[e.from].rel, e.line,
                                   "include-cycle",
                                   "include cycle: " + cycle});
        continue;
      }
      if (color[e.to] == Color::White) {
        color[e.to] = Color::Grey;
        stack.push_back(Frame{e.to, 0});
      }
    }
  }
}

}  // namespace tmg::tmglint
