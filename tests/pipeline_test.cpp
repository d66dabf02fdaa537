// Tests for the message pipeline (DESIGN.md §9): deterministic chain
// ordering, Stop semantics, verdict accumulation, enable/disable,
// per-listener stats, and each profile's live chain against its golden
// in tests/golden/ — plus end-to-end determinism of the stacked-defense
// suite across repeated runs and worker counts.
//
// TMG_SOURCE_ROOT is a compile definition set in tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ctrl/controller.hpp"
#include "ctrl/message_pipeline.hpp"
#include "ctrl/profiles.hpp"
#include "defense/sphinx.hpp"
#include "defense/topoguard.hpp"
#include "scenario/experiments.hpp"
#include "scenario/trial_runner.hpp"

namespace tmg::ctrl {
namespace {

using namespace tmg::sim::literals;

/// Scripted listener: fixed name/mask/disposition, counts deliveries.
class TestListener final : public MessageListener {
 public:
  TestListener(std::string name, std::uint32_t mask,
               Disposition disposition = Disposition::Continue)
      : name_{std::move(name)}, mask_{mask}, disposition_{disposition} {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::uint32_t subscriptions() const override { return mask_; }
  Disposition on_message(const PipelineMessage&,
                         DispatchContext& ctx) override {
    ++calls;
    if (block) ctx.verdict = Verdict::Block;
    return disposition_;
  }

  int calls = 0;
  bool block = false;

 private:
  std::string name_;
  std::uint32_t mask_;
  Disposition disposition_;
};

PipelineMessage packet_in_message(const of::PacketIn& pi) {
  return PipelineMessage::from(0, pi);
}

// ---------------------------------------------------------------------
// Chain ordering
// ---------------------------------------------------------------------

TEST(MessagePipeline, ChainOrderIsPureFunctionOfPriorityAndName) {
  const std::uint32_t mask = mask_of(MessageType::PacketIn);
  // Three registration orders of the same (priority, name) set must
  // resolve to the same chain.
  std::vector<std::pair<int, std::string>> specs = {
      {300, "gamma"}, {100, "alpha"}, {200, "beta"}, {100, "delta"}};
  std::vector<std::vector<std::string>> chains;
  for (int shuffle = 0; shuffle < 3; ++shuffle) {
    std::rotate(specs.begin(), specs.begin() + shuffle, specs.end());
    MessagePipeline p;
    for (const auto& [prio, name] : specs) {
      p.add_owned(prio, std::make_unique<TestListener>(name, mask));
    }
    chains.push_back(p.chain_names());
    EXPECT_TRUE(p.audit().empty());
  }
  const std::vector<std::string> expected = {"alpha", "delta", "beta",
                                            "gamma"};
  EXPECT_EQ(chains[0], expected);
  EXPECT_EQ(chains[1], expected);
  EXPECT_EQ(chains[2], expected);
}

TEST(MessagePipeline, DuplicateNamesGetDeterministicSuffixes) {
  const std::uint32_t mask = mask_of(MessageType::PacketIn);
  MessagePipeline p;
  p.add_owned(50, std::make_unique<TestListener>("dup", mask));
  p.add_owned(50, std::make_unique<TestListener>("dup", mask));
  p.add_owned(50, std::make_unique<TestListener>("dup", mask));
  const std::vector<std::string> expected = {"dup", "dup#2", "dup#3"};
  EXPECT_EQ(p.chain_names(), expected);
  EXPECT_TRUE(p.audit().empty());
}

// ---------------------------------------------------------------------
// Dispatch semantics
// ---------------------------------------------------------------------

TEST(MessagePipeline, StopConsumesTheMessage) {
  const std::uint32_t mask = mask_of(MessageType::PacketIn);
  MessagePipeline p;
  auto& first = static_cast<TestListener&>(
      p.add_owned(1, std::make_unique<TestListener>("first", mask)));
  auto& mid = static_cast<TestListener&>(p.add_owned(
      2, std::make_unique<TestListener>("mid", mask, Disposition::Stop)));
  auto& last = static_cast<TestListener&>(
      p.add_owned(3, std::make_unique<TestListener>("last", mask)));

  of::PacketIn pi;
  DispatchContext ctx;
  p.dispatch(packet_in_message(pi), ctx);

  EXPECT_EQ(first.calls, 1);
  EXPECT_EQ(mid.calls, 1);
  EXPECT_EQ(last.calls, 0);
  EXPECT_EQ(ctx.visited, 2u);
  ASSERT_NE(ctx.stopped_by, nullptr);
  EXPECT_STREQ(ctx.stopped_by, "mid");

  const auto stats = p.stats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[1].name, "mid");
  EXPECT_EQ(stats[1].dispatches, 1u);
  EXPECT_EQ(stats[1].stops, 1u);
  EXPECT_EQ(stats[2].dispatches, 0u);
}

TEST(MessagePipeline, SubscriptionMaskFiltersDelivery) {
  MessagePipeline p;
  auto& ports = static_cast<TestListener&>(p.add_owned(
      1, std::make_unique<TestListener>("ports",
                                        mask_of(MessageType::PortStatus))));
  auto& both = static_cast<TestListener&>(p.add_owned(
      2, std::make_unique<TestListener>(
             "both", MessageType::PacketIn | MessageType::PortStatus)));

  of::PacketIn pi;
  EXPECT_EQ(p.dispatch(packet_in_message(pi)), Verdict::Allow);
  EXPECT_EQ(ports.calls, 0);
  EXPECT_EQ(both.calls, 1);

  of::PortStatus ps;
  p.dispatch(PipelineMessage::from(0x1, 0, ps));
  EXPECT_EQ(ports.calls, 1);
  EXPECT_EQ(both.calls, 2);
}

TEST(MessagePipeline, BlockAccumulatesWithoutStoppingSiblings) {
  const std::uint32_t mask = mask_of(MessageType::PacketIn);
  MessagePipeline p;
  auto& blocker = static_cast<TestListener&>(
      p.add_owned(1, std::make_unique<TestListener>("blocker", mask)));
  blocker.block = true;
  auto& sibling = static_cast<TestListener&>(
      p.add_owned(2, std::make_unique<TestListener>("sibling", mask)));

  of::PacketIn pi;
  EXPECT_EQ(p.dispatch(packet_in_message(pi)), Verdict::Block);
  // The sibling still saw the message: Block accumulates, it does not
  // short-circuit (paper Sec. IV-B).
  EXPECT_EQ(sibling.calls, 1);
}

TEST(MessagePipeline, DisabledListenersAreSkippedButKeepTheirSlot) {
  const std::uint32_t mask = mask_of(MessageType::PacketIn);
  MessagePipeline p;
  auto& a = static_cast<TestListener&>(
      p.add_owned(1, std::make_unique<TestListener>("a", mask)));
  auto& b = static_cast<TestListener&>(
      p.add_owned(2, std::make_unique<TestListener>("b", mask)));

  EXPECT_TRUE(p.set_enabled("a", false));
  EXPECT_FALSE(p.is_enabled("a"));
  EXPECT_FALSE(p.set_enabled("nonexistent", false));

  of::PacketIn pi;
  p.dispatch(packet_in_message(pi));
  EXPECT_EQ(a.calls, 0);
  EXPECT_EQ(b.calls, 1);
  const std::vector<std::string> expected = {"a", "b"};
  EXPECT_EQ(p.chain_names(), expected);  // order stable while disabled

  EXPECT_TRUE(p.set_enabled("a", true));
  p.dispatch(packet_in_message(pi));
  EXPECT_EQ(a.calls, 1);
}

// ---------------------------------------------------------------------
// Controller wiring
// ---------------------------------------------------------------------

/// One `<priority> <name> <subs>` line per listener in chain order;
/// <subs> names each subscribed MessageType, in bit order, joined by |.
std::string render_chain(
    const std::vector<MessagePipeline::ListenerStats>& stats) {
  std::string out;
  for (const auto& s : stats) {
    std::string subs;
    for (int bit = 0; bit < 32; ++bit) {
      const std::uint32_t type = 1u << bit;
      if ((s.subscriptions & type) == 0) continue;
      if (!subs.empty()) subs += '|';
      subs += to_string(static_cast<MessageType>(type));
    }
    out += std::to_string(s.priority) + " " + s.name + " " + subs + "\n";
  }
  return out;
}

// The controller's wiring contract: each profile's live chain, with
// TopoGuard and SPHINX installed so the defense band shows its base and
// its step, equals tests/golden/pipeline_<profile>.txt byte for byte.
// After a deliberate wiring change, paste the printed chain into the
// golden.
TEST(ControllerPipeline, ChainMatchesGoldenPerProfile) {
  const std::filesystem::path golden_dir =
      std::filesystem::path{TMG_SOURCE_ROOT} / "tests" / "golden";
  std::set<std::string> expected_files;
  for (const std::string& key : profile_cli_names()) {
    SCOPED_TRACE("profile " + key);
    sim::EventLoop loop;
    ControllerConfig config;
    config.profile = *profile_by_name(key);
    Controller ctrl{loop, sim::Rng{1}, config};
    ctrl.add_defense(std::make_unique<defense::TopoGuard>(ctrl));
    ctrl.add_defense(std::make_unique<defense::Sphinx>(ctrl));
    const auto stats = ctrl.pipeline().stats();
    EXPECT_TRUE(ctrl.pipeline().audit().empty());

    for (std::size_t i = 1; i < stats.size(); ++i) {
      EXPECT_LT(stats[i - 1].priority, stats[i].priority)
          << stats[i - 1].name << " and " << stats[i].name
          << " do not have strictly increasing priorities";
    }

    const std::string file = "pipeline_" + key + ".txt";
    expected_files.insert(file);
    std::ifstream in(golden_dir / file);
    std::ostringstream golden;
    golden << in.rdbuf();
    const std::string rendered = render_chain(stats);
    EXPECT_EQ(rendered, golden.str())
        << "tests/golden/" << file << " does not match; the live chain is:\n"
        << rendered;
  }

  // Exactly one golden per profile: none missing, none stale.
  std::set<std::string> found;
  for (const auto& entry : std::filesystem::directory_iterator(golden_dir)) {
    const std::string file = entry.path().filename().string();
    if (file.starts_with("pipeline_") && file.ends_with(".txt")) {
      found.insert(file);
    }
  }
  EXPECT_EQ(found, expected_files);
}

// ---------------------------------------------------------------------
// Stacked-suite determinism
// ---------------------------------------------------------------------

std::vector<std::pair<std::string, std::uint64_t>> dispatch_fingerprint(
    const std::vector<MessagePipeline::ListenerStats>& stats) {
  std::vector<std::pair<std::string, std::uint64_t>> fp;
  fp.reserve(stats.size());
  for (const auto& s : stats) fp.emplace_back(s.name, s.dispatches);
  return fp;
}

TEST(StackedSuite, TwoRunsAreIdentical) {
  scenario::HijackConfig cfg;
  cfg.suite = scenario::DefenseSuite::Stacked;
  cfg.seed = 11;
  cfg.collect_pipeline_stats = true;
  const scenario::HijackOutcome a = scenario::run_hijack(cfg);
  const scenario::HijackOutcome b = scenario::run_hijack(cfg);

  EXPECT_EQ(a.hijack_succeeded, b.hijack_succeeded);
  EXPECT_EQ(a.alerts_before_rejoin, b.alerts_before_rejoin);
  EXPECT_EQ(a.alerts_after_rejoin, b.alerts_after_rejoin);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(dispatch_fingerprint(a.pipeline_stats),
            dispatch_fingerprint(b.pipeline_stats));
  // The stacked chain really is the full stack.
  const auto names = dispatch_fingerprint(a.pipeline_stats);
  // core, 4 defenses, observer, anomaly slot, gate, 3 services
  ASSERT_EQ(names.size(), 11u);
  EXPECT_EQ(names[1].first, "TopoGuard");
  EXPECT_EQ(names[2].first, "SPHINX");
  EXPECT_EQ(names[3].first, "CMM");
  EXPECT_EQ(names[4].first, "LLI");
}

TEST(StackedSuite, WorkerCountDoesNotChangeResults) {
  const auto run_with_jobs = [](std::size_t jobs) {
    scenario::TrialRunner runner{{jobs}};
    return runner.map(4, [](std::size_t i) {
      scenario::HijackConfig cfg;
      cfg.suite = scenario::DefenseSuite::Stacked;
      cfg.seed = scenario::TrialRunner::trial_seed(11, i);
      cfg.collect_pipeline_stats = true;
      const scenario::HijackOutcome out = scenario::run_hijack(cfg);
      return std::make_tuple(out.hijack_succeeded, out.events_executed,
                             dispatch_fingerprint(out.pipeline_stats));
    });
  };
  EXPECT_EQ(run_with_jobs(1), run_with_jobs(8));
}

}  // namespace
}  // namespace tmg::ctrl
