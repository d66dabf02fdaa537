// tmglint: fixture-driven pins for every rule (positive AND negative),
// byte-identical report output, and the real source tree is clean
// (findings in src/ get fixed or deliberately annotated in the same
// change that introduces them).
//
// TMGLINT_FIXTURES and TMG_SOURCE_ROOT are compile definitions set in
// tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analyzer.hpp"

namespace tmg::tmglint {
namespace {

std::string fixture(const std::string& name) {
  return std::string{TMGLINT_FIXTURES} + "/" + name;
}

/// (file, rule) pairs, for order-insensitive presence checks.
std::multiset<std::pair<std::string, std::string>> keyed(
    const std::vector<Finding>& findings) {
  std::multiset<std::pair<std::string, std::string>> out;
  for (const auto& f : findings) out.emplace(f.file, f.rule);
  return out;
}

int count_of(const std::vector<Finding>& findings, const std::string& file,
             const std::string& rule) {
  int n = 0;
  for (const auto& f : findings) {
    if (f.file == file && f.rule == rule) ++n;
  }
  return n;
}

bool any_message_contains(const std::vector<Finding>& findings,
                          const std::string& needle) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) {
                       return f.message.find(needle) != std::string::npos;
                     });
}

// ---------------------------------------------------------------------
// Determinism rules: each fixture pins one rule both ways.
// ---------------------------------------------------------------------

class DeterminismFixtures : public ::testing::Test {
 protected:
  static const std::vector<Finding>& findings() {
    static const std::vector<Finding> kFindings = [] {
      const SourceTree tree = load_source_tree(fixture("rules"));
      std::vector<Finding> out;
      run_determinism_pass(tree, out);
      sort_findings(out);
      return out;
    }();
    return kFindings;
  }
};

TEST_F(DeterminismFixtures, WallClockPositiveAndNegative) {
  EXPECT_GE(count_of(findings(), "src/sim/wallclock_bad.cpp", "wall-clock"),
            2);  // system_clock::now() and time(nullptr)
  EXPECT_EQ(count_of(findings(), "src/sim/wallclock_good.cpp", "wall-clock"),
            0);  // strings, comments, raw strings, time(x) with an arg
}

TEST_F(DeterminismFixtures, WallClockIsHardInObsDespiteAllow) {
  // Hard in every module: src/obs (exports) and src/ctrl alike.
  EXPECT_EQ(count_of(findings(), "src/obs/hard_wallclock.cpp", "wall-clock"),
            1);
  EXPECT_EQ(count_of(findings(), "src/ctrl/hard_wallclock.cpp", "wall-clock"),
            1);
  EXPECT_TRUE(any_message_contains(findings(), "(hard) "));
}

TEST_F(DeterminismFixtures, LibcRandPositiveAndNegative) {
  EXPECT_GE(count_of(findings(), "src/sim/rand_bad.cpp", "libc-rand"), 3);
  EXPECT_EQ(count_of(findings(), "src/sim/rand_good.cpp", "libc-rand"), 0);
}

TEST_F(DeterminismFixtures, RandomDevicePositiveAndNegative) {
  EXPECT_EQ(
      count_of(findings(), "src/sim/random_device_bad.cpp", "random-device"),
      1);
  EXPECT_EQ(
      count_of(findings(), "src/sim/random_device_good.cpp", "random-device"),
      0);
}

TEST_F(DeterminismFixtures, UnorderedIterPairsHeaderWithImpl) {
  // The member is declared in the .hpp; the range-for lives in the .cpp.
  EXPECT_EQ(
      count_of(findings(), "src/net/flow_table_bad.cpp", "unordered-iter"),
      1);
  EXPECT_EQ(
      count_of(findings(), "src/net/flow_table_good.cpp", "unordered-iter"),
      0);  // iterates a sorted snapshot
}

TEST_F(DeterminismFixtures, PointerKeyPositiveAndNegative) {
  EXPECT_EQ(count_of(findings(), "src/sim/ptrkey_bad.hpp", "pointer-key"), 2);
  EXPECT_EQ(count_of(findings(), "src/sim/ptrkey_good.hpp", "pointer-key"),
            0);  // pointer in the mapped position is fine
}

TEST_F(DeterminismFixtures, ThreadingScopedToAllowlist) {
  // Two lines: the mutex, and the lock_guard<std::mutex> whose two
  // primitives still make one finding.
  EXPECT_EQ(count_of(findings(), "src/net/threading_bad.cpp", "threading"),
            2);
  // src/sim/thread_pool.hpp is the sanctioned worker pool.
  EXPECT_EQ(count_of(findings(), "src/sim/thread_pool.hpp", "threading"), 0);
}

TEST_F(DeterminismFixtures, SharedRngPositiveAndNegative) {
  EXPECT_GE(
      count_of(findings(), "src/scenario/shared_rng_bad.hpp", "shared-rng"),
      2);  // static global + reference member
  EXPECT_EQ(
      count_of(findings(), "src/scenario/shared_rng_good.hpp", "shared-rng"),
      0);  // owned member + borrowed parameter
}

TEST_F(DeterminismFixtures, CacheCoherencePositiveAndNegative) {
  EXPECT_EQ(
      count_of(findings(), "src/topo/route_cache_bad.hpp", "cache-coherence"),
      1);
  EXPECT_EQ(count_of(findings(), "src/topo/route_cache_good.hpp",
                     "cache-coherence"),
            0);  // epoch_seen_ ties the cache to the graph's epoch
}

TEST_F(DeterminismFixtures, NoFindingsOutsideTheBadFixtures) {
  static const std::set<std::string> kExpectedDirty = {
      "src/sim/wallclock_bad.cpp",        "src/obs/hard_wallclock.cpp",
      "src/ctrl/hard_wallclock.cpp",      "src/sim/rand_bad.cpp",
      "src/sim/random_device_bad.cpp",    "src/net/flow_table_bad.cpp",
      "src/sim/ptrkey_bad.hpp",           "src/net/threading_bad.cpp",
      "src/scenario/shared_rng_bad.hpp",  "src/topo/route_cache_bad.hpp",
  };
  for (const auto& f : findings()) {
    EXPECT_TRUE(kExpectedDirty.count(f.file) != 0)
        << f.file << ":" << f.line << ": " << f.rule << ": " << f.message;
  }
}

// ---------------------------------------------------------------------
// Callback lifetimes
// ---------------------------------------------------------------------

TEST(LifetimeFixtures, FlagsEscapingCapturesAndBorrowedThis) {
  const SourceTree tree = load_source_tree(fixture("rules"));
  std::vector<Finding> out;
  run_lifetime_pass(tree, out);
  EXPECT_EQ(count_of(out, "src/of/lifetime_bad.cpp", "callback-lifetime"), 2);
  EXPECT_EQ(count_of(out, "src/of/lifetime_good.cpp", "callback-lifetime"),
            0);  // drained driver, member-loop `this`, by-value capture
  for (const auto& f : out) {
    EXPECT_EQ(f.file, "src/of/lifetime_bad.cpp") << f.file << ": " << f.message;
  }
}

// ---------------------------------------------------------------------
// Suppression audit
// ---------------------------------------------------------------------

TEST(SuppressionAudit, LiveDirectivesPassStaleOnesFail) {
  const SourceTree tree = load_source_tree(fixture("suppression"));
  std::vector<Finding> findings;
  run_determinism_pass(tree, findings);
  run_lifetime_pass(tree, findings);
  // fresh.cpp's rand() is allowed, skipped.cpp is skip-file'd: no rule
  // findings anywhere.
  EXPECT_TRUE(findings.empty());

  run_suppression_audit(tree, findings);
  sort_findings(findings);
  const auto keys = keyed(findings);
  EXPECT_EQ(keys.count({"src/sim/stale.cpp", "stale-suppression"}), 1u);
  EXPECT_EQ(keys.count({"src/sim/skip_stale.cpp", "stale-suppression"}), 1u);
  EXPECT_EQ(keys.count({"src/sim/fresh.cpp", "stale-suppression"}), 0u);
  EXPECT_EQ(keys.count({"src/sim/skipped.cpp", "stale-suppression"}), 0u);
  EXPECT_EQ(findings.size(), 2u);
}

// ---------------------------------------------------------------------
// Layering
// ---------------------------------------------------------------------

TEST(LayeringFixtures, DownwardIncludesAreClean) {
  const SourceTree tree = load_source_tree(fixture("layering_good"));
  std::vector<Finding> findings;
  run_layering_pass(tree, findings);
  EXPECT_TRUE(findings.empty()) << render_report(findings);
}

TEST(LayeringFixtures, UpwardPeerObsAndCycleAllFlagged) {
  const SourceTree tree = load_source_tree(fixture("layering_bad"));
  std::vector<Finding> findings;
  run_layering_pass(tree, findings);
  sort_findings(findings);
  const auto keys = keyed(findings);
  EXPECT_EQ(keys.count({"src/net/wire.hpp", "layering"}), 1u);      // upward
  EXPECT_EQ(keys.count({"src/defense/guard.hpp", "layering"}), 1u);  // peer
  EXPECT_EQ(keys.count({"src/obs/metrics.hpp", "layering"}), 1u);   // obs leak
  int cycles = 0;
  for (const auto& f : findings) {
    if (f.rule == "include-cycle") ++cycles;
  }
  EXPECT_GE(cycles, 1);
}

// The anomaly-IDS edges (DESIGN.md §14): ids -> obs and ids -> stats
// are one-way. The good tree includes both directions ids is allowed;
// the bad tree closes the loop (obs -> ids), which must surface as an
// obs-leak rank violation AND a file-level include cycle.
TEST(LayeringFixtures, IdsObsEdgeIsOneWay) {
  const SourceTree good = load_source_tree(fixture("layering_good"));
  std::vector<Finding> good_findings;
  run_layering_pass(good, good_findings);
  for (const auto& f : good_findings) {
    EXPECT_NE(f.file, "src/ids/profile.hpp") << f.message;
  }

  const SourceTree bad = load_source_tree(fixture("layering_bad"));
  std::vector<Finding> findings;
  run_layering_pass(bad, findings);
  sort_findings(findings);
  const auto keys = keyed(findings);
  // obs reaching back into ids: rank violation on the obs file.
  EXPECT_EQ(keys.count({"src/obs/export.hpp", "layering"}), 1u);
  // The legal direction alone raises nothing with the "layering" rule;
  // the closed loop is reported as an include cycle through the pair.
  EXPECT_EQ(keys.count({"src/ids/profile.hpp", "layering"}), 0u);
  bool ids_obs_cycle = false;
  for (const auto& f : findings) {
    if (f.rule == "include-cycle" &&
        f.message.find("src/ids/profile.hpp") != std::string::npos &&
        f.message.find("src/obs/export.hpp") != std::string::npos) {
      ids_obs_cycle = true;
    }
  }
  EXPECT_TRUE(ids_obs_cycle) << render_report(findings);
}

// ---------------------------------------------------------------------
// The real tree
// ---------------------------------------------------------------------

Options real_tree_options() {
  Options opts;
  opts.root = TMG_SOURCE_ROOT;
  return opts;
}

TEST(RealTree, AllPassesClean) {
  const std::vector<Finding> findings = analyze(real_tree_options());
  EXPECT_TRUE(findings.empty()) << render_report(findings);
}

TEST(RealTree, ReportIsByteIdenticalAcrossRuns) {
  EXPECT_EQ(render_report(analyze(real_tree_options())),
            render_report(analyze(real_tree_options())));
}

}  // namespace
}  // namespace tmg::tmglint
