// TrialRunner determinism contract (DESIGN.md §7).
//
// The whole point of the parallel trial runner is that `--jobs N` is a
// pure wall-clock knob: every simulated number must be byte-identical
// to the serial run. These tests serialize full experiment outcomes —
// including exact double bits and per-trial alert logs — and require
// jobs 1/2/8 to agree on the paper's two headline experiment families
// (port amnesia link fabrication, port probing hijack).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/packet.hpp"
#include "scenario/cli.hpp"
#include "scenario/experiments.hpp"
#include "scenario/trial_arena.hpp"
#include "scenario/trial_runner.hpp"
#include "sim/thread_pool.hpp"
#include "stats/streaming_quantile.hpp"

namespace tmg::scenario {
namespace {

// Exact textual serialization: doubles are printed as hex-floats so
// that "identical" means identical bits, not identical rounding.
void put(std::ostream& os, double v) { os << std::hexfloat << v << ';'; }
void put(std::ostream& os, const std::optional<double>& v) {
  if (v) {
    put(os, *v);
  } else {
    os << "nil;";
  }
}

std::string serialize(const HijackOutcome& out) {
  std::ostringstream os;
  os << out.hijack_succeeded << ';' << out.traffic_redirected << ';';
  put(os, out.down_to_final_probe_start_ms);
  put(os, out.down_to_declared_down_ms);
  put(os, out.down_to_iface_up_ms);
  put(os, out.down_to_confirmed_ms);
  put(os, out.ident_change_ms);
  os << out.alerts_before_rejoin << ';' << out.alerts_after_rejoin << ';'
     << out.events_executed << ';';
  for (const ctrl::Alert& a : out.alerts) {
    os << a.time.count_nanos() << ',' << a.module << ','
       << static_cast<int>(a.type) << ',' << a.message << '|';
  }
  return std::move(os).str();
}

std::string serialize(const LinkAttackOutcome& out) {
  std::ostringstream os;
  os << out.link_registered << ';' << out.link_present_at_end << ';'
     << out.mitm_traffic << ';' << out.lldp_relayed << ';'
     << out.transit_bridged << ';' << out.flaps << ';'
     << out.alerts_before_attack << ';' << out.alerts_total << ';'
     << out.alerts_topoguard << ';' << out.alerts_sphinx << ';'
     << out.alerts_cmm << ';' << out.alerts_lli << ';'
     << out.events_executed;
  return std::move(os).str();
}

std::vector<std::string> hijack_trials_at(std::size_t jobs,
                                          std::size_t trials) {
  TrialRunner runner{{jobs}};
  const auto outcomes = runner.map(trials, [](std::size_t i) {
    HijackConfig cfg;
    // Alternate suites so trials exercise different code paths and
    // alert volumes, not just different seeds.
    cfg.suite = (i % 2 == 0) ? DefenseSuite::TopoGuardAndSphinx
                             : DefenseSuite::Sphinx;
    cfg.seed = 500 + i;
    cfg.nmap_overhead = (i % 3 == 0);
    return run_hijack(cfg);
  });
  std::vector<std::string> serialized;
  serialized.reserve(outcomes.size());
  for (const auto& out : outcomes) serialized.push_back(serialize(out));
  return serialized;
}

std::vector<std::string> link_attack_trials_at(std::size_t jobs,
                                               std::size_t trials) {
  TrialRunner runner{{jobs}};
  const auto outcomes = runner.map(trials, [](std::size_t i) {
    LinkAttackConfig cfg;
    cfg.kind = (i % 2 == 0) ? LinkAttackKind::OobAmnesia
                            : LinkAttackKind::ClassicRelay;
    cfg.suite = DefenseSuite::TopoGuardAndSphinx;
    cfg.seed = 700 + i;
    // Shortened windows keep the test fast; the attack still needs a
    // few LLDP rounds to land (benign >= 10 s, attack >= 32 s).
    cfg.benign_window = sim::Duration::seconds(12);
    cfg.attack_window = sim::Duration::seconds(33);
    return run_link_attack(cfg);
  });
  std::vector<std::string> serialized;
  serialized.reserve(outcomes.size());
  for (const auto& out : outcomes) serialized.push_back(serialize(out));
  return serialized;
}

TEST(TrialRunnerTest, HijackTrialsIdenticalAcrossJobCounts) {
  const auto serial = hijack_trials_at(1, 6);
  const auto two = hijack_trials_at(2, 6);
  const auto eight = hijack_trials_at(8, 6);
  ASSERT_EQ(serial.size(), 6u);
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
  // Sanity: the experiment actually produced signal, so equality above
  // is not comparing six empty outcomes.
  bool any_success = false;
  for (const auto& s : serial) any_success |= (s.substr(0, 2) == "1;");
  EXPECT_TRUE(any_success);
}

TEST(TrialRunnerTest, LinkAttackTrialsIdenticalAcrossJobCounts) {
  const auto serial = link_attack_trials_at(1, 4);
  const auto parallel = link_attack_trials_at(2, 4);
  ASSERT_EQ(serial.size(), 4u);
  EXPECT_EQ(serial, parallel);
}

TEST(TrialRunnerTest, AggregatesIdenticalAcrossJobCounts) {
  // Aggregation in trial-index order over parallel results must match
  // the serial fold exactly (no floating-point reassociation).
  const auto sum_at = [](std::size_t jobs) {
    TrialRunner runner{{jobs}};
    const auto outcomes = runner.map(5, [](std::size_t i) {
      HijackConfig cfg;
      cfg.seed = 900 + i;
      return run_hijack(cfg);
    });
    double sum = 0.0;
    std::uint64_t events = 0;
    for (const auto& out : outcomes) {
      if (out.down_to_confirmed_ms) sum += *out.down_to_confirmed_ms;
      events += out.events_executed;
    }
    std::ostringstream os;
    os << std::hexfloat << sum << ';' << events;
    return std::move(os).str();
  };
  const std::string serial = sum_at(1);
  EXPECT_EQ(serial, sum_at(2));
  EXPECT_EQ(serial, sum_at(8));
}

TEST(TrialRunnerTest, TrialSeedIsPureAndWellSpread) {
  // Same (base, index) -> same seed, every call.
  EXPECT_EQ(TrialRunner::trial_seed(42, 0), TrialRunner::trial_seed(42, 0));
  EXPECT_EQ(TrialRunner::trial_seed(7, 123),
            TrialRunner::trial_seed(7, 123));
  // Distinct indices must not collide over a realistic trial range,
  // and far-apart bases land in distinct streams. (base and index are
  // XOR-folded before scrambling, so trial_seed(b, 0) == trial_seed(
  // b ^ i, i) by construction — bases below stay clear of 42 ^ [0,1000).)
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 1000; ++i) {
    seen.insert(TrialRunner::trial_seed(42, i));
  }
  for (std::uint64_t base : {0x10000ull, 0x20000ull, 0xdeadbeefull}) {
    seen.insert(TrialRunner::trial_seed(base, 0));
  }
  EXPECT_EQ(seen.size(), 1003u);
}

TEST(TrialRunnerTest, JobsResolveAndSerialFallback) {
  TrialRunner defaulted{{}};
  EXPECT_GE(defaulted.jobs(), 1u);
  EXPECT_EQ(defaulted.jobs(), sim::ThreadPool::hardware_jobs());
  TrialRunner serial{{1}};
  EXPECT_EQ(serial.jobs(), 1u);
  TrialRunner four{{4}};
  EXPECT_EQ(four.jobs(), 4u);
}

TEST(TrialRunnerTest, MapPreservesIndexOrder) {
  TrialRunner runner{{4}};
  const auto out =
      runner.map(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(TrialRunnerTest, ExceptionFromLowestFailingTrialPropagates) {
  TrialRunner runner{{4}};
  try {
    runner.map(16, [](std::size_t i) -> int {
      if (i == 3 || i == 11) {
        throw std::runtime_error("trial " + std::to_string(i));
      }
      return 0;
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "trial 3");
  }
}

TEST(TrialRunnerTest, ChunkGeometryDependsOnTrialCountAlone) {
  // The determinism argument rests on chunk boundaries being a pure
  // function of the trial count: every trial is covered exactly once,
  // and at most kMaxChunks chunks exist (so reduce() holds O(64)
  // partials at any scale).
  for (const std::size_t trials :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{65},
        std::size_t{1000}, std::size_t{100000}}) {
    const std::size_t size = TrialRunner::chunk_size(trials);
    const std::size_t n = TrialRunner::chunk_count(trials);
    EXPECT_LE(n, TrialRunner::kMaxChunks) << trials;
    EXPECT_GE(size * n, trials) << trials;
    EXPECT_LT(size * (n - 1), trials) << trials;
  }
  EXPECT_EQ(TrialRunner::chunk_count(0), 0u);
  // Small batches fan out one trial per chunk (full parallelism).
  EXPECT_EQ(TrialRunner::chunk_size(8), 1u);
  EXPECT_EQ(TrialRunner::chunk_count(8), 8u);
}

TEST(TrialRunnerTest, ReduceStreamsWithoutMaterializingResults) {
  // Sum of squares over 10^5 indices through per-chunk accumulators.
  TrialRunner runner{{4}};
  struct Acc {
    std::uint64_t sum = 0;
  };
  const Acc total = runner.reduce(
      100000, [] { return Acc{}; },
      [](Acc& a, std::size_t i) {
        a.sum += static_cast<std::uint64_t>(i) * i;
      },
      [](Acc& t, Acc&& part) { t.sum += part.sum; });
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < 100000; ++i) expect += i * i;
  EXPECT_EQ(total.sum, expect);
}

TEST(TrialRunnerTest, ReduceQuantilesByteIdenticalAcrossJobCounts) {
  // The Monte-Carlo contract: a StreamingQuantile reduce — whose merge
  // is deliberately order-sensitive — must still come out bit-identical
  // at any job count, because chunk boundaries and merge order are a
  // function of the trial count alone.
  const auto run_at = [](std::size_t jobs) {
    TrialRunner runner{{jobs}};
    struct Acc {
      stats::StreamingQuantile p50{0.5, 32};
      stats::StreamingQuantile p99{0.99, 32};
      double sum = 0.0;
    };
    const Acc acc = runner.reduce(
        5000, [] { return Acc{}; },
        [](Acc& a, std::size_t i) {
          // Deterministic per-trial value derived the same way trial
          // seeds are: no RNG state crosses trials.
          const double x = static_cast<double>(
                               TrialRunner::trial_seed(9000, i) % 100000) /
                           1000.0;
          a.p50.add(x);
          a.p99.add(x);
          a.sum += x;
        },
        [](Acc& t, Acc&& part) {
          t.p50.merge(part.p50);
          t.p99.merge(part.p99);
          t.sum += part.sum;
        });
    std::ostringstream os;
    os << std::hexfloat << acc.p50.value() << ';' << acc.p99.value() << ';'
       << acc.p50.min() << ';' << acc.p50.max() << ';' << acc.sum;
    return std::move(os).str();
  };
  const std::string serial = run_at(1);
  EXPECT_EQ(serial, run_at(2));
  EXPECT_EQ(serial, run_at(8));
}

TEST(TrialRunnerTest, LegacyRunnerProducesIdenticalResults) {
  // The pre-chunking scheduler stays until perfbench's `{1, false}`
  // initialiser becomes `{.jobs = 1}`; until then it must stay
  // observationally interchangeable with the default path
  // — including well past kMaxChunks trials, where its per-trial
  // "chunks" outnumber the chunked scheduler's static grid.
  TrialRunner chunked{{4, false}};
  TrialRunner legacy{{4, true}};
  for (const std::size_t trials : {std::size_t{50}, std::size_t{200}}) {
    const auto a =
        chunked.map(trials, [](std::size_t i) { return i * 3 + 1; });
    const auto b =
        legacy.map(trials, [](std::size_t i) { return i * 3 + 1; });
    EXPECT_EQ(a, b) << trials;
  }
}

TEST(TrialRunnerTest, LegacyReduceHoldsOnePartialPerTrial) {
  // Regression: the legacy scheduler emits chunk index == trial index,
  // so reduce() must size its partials per *trial*, not per the static
  // <= kMaxChunks grid — at 200 trials the old sizing wrote partials[64
  // and up] out of bounds (bench_montecarlo --legacy-runner).
  struct Acc {
    std::uint64_t sum = 0;
  };
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < 200; ++i) expect += i * i;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    TrialRunner legacy{{jobs, true}};
    const Acc total = legacy.reduce(
        200, [] { return Acc{}; },
        [](Acc& a, std::size_t i) {
          a.sum += static_cast<std::uint64_t>(i) * i;
        },
        [](Acc& t, Acc&& part) { t.sum += part.sum; });
    EXPECT_EQ(total.sum, expect) << jobs;
  }
}

TEST(TrialRunnerTest, ReduceResetsTraceIdsAtEveryTrialEntry) {
  // DESIGN.md §7 rule 1 on the reduce path: every trial must start with
  // a fresh thread-local trace-id counter, so the first trace id a
  // trial draws is 1 regardless of what the worker ran before — at any
  // job count (the serial path shares one thread across all trials).
  for (const std::size_t jobs :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    TrialRunner runner{{jobs}};
    struct Acc {
      bool all_first_ids_one = true;
    };
    const Acc acc = runner.reduce(
        64, [] { return Acc{}; },
        [](Acc& a, std::size_t) {
          // Draw twice: the first id must be the post-reset 1, and the
          // second draw dirties the counter for the *next* trial to
          // prove the reset actually happens per trial.
          a.all_first_ids_one &= (net::next_trace_id() == 1);
          net::next_trace_id();
        },
        [](Acc& t, Acc&& part) {
          t.all_first_ids_one &= part.all_first_ids_one;
        });
    EXPECT_TRUE(acc.all_first_ids_one) << jobs;
  }
}

TEST(TrialRunnerTest, WorkerSlotStaysWithinJobs) {
  TrialRunner runner{{4}};
  std::atomic<bool> out_of_range{false};
  runner.map(200, [&](std::size_t) {
    if (TrialRunner::worker_slot() >= 4) out_of_range.store(true);
    return 0;
  });
  EXPECT_FALSE(out_of_range.load());
  // The serial path runs on the caller's thread: slot 0 by contract.
  EXPECT_EQ(TrialRunner::worker_slot(), 0u);
}

TEST(TrialRunnerTest, ArenaReusedAcrossTrialsIsObservationallyFresh) {
  // The arena-reset contract, end to end: N hijack experiments run back
  // to back through ONE recycled arena must serialize byte-identically
  // to N fresh-testbed runs — same alert logs, same double bits, same
  // event counts.
  std::vector<std::string> fresh;
  for (std::size_t i = 0; i < 3; ++i) {
    HijackConfig cfg;
    cfg.suite = (i % 2 == 0) ? DefenseSuite::TopoGuardAndSphinx
                             : DefenseSuite::Sphinx;
    cfg.seed = 1300 + i;
    fresh.push_back(serialize(run_hijack(cfg)));
  }
  TrialArena arena;
  std::vector<std::string> recycled;
  for (std::size_t i = 0; i < 3; ++i) {
    HijackConfig cfg;
    cfg.suite = (i % 2 == 0) ? DefenseSuite::TopoGuardAndSphinx
                             : DefenseSuite::Sphinx;
    cfg.seed = 1300 + i;
    cfg.arena = &arena;
    recycled.push_back(serialize(run_hijack(cfg)));
  }
  EXPECT_EQ(fresh, recycled);
  EXPECT_EQ(arena.trials_served(), 3u);
}

TEST(TrialRunnerTest, ArenaLinkAttackMatchesFreshTestbed) {
  LinkAttackConfig cfg;
  cfg.kind = LinkAttackKind::OobAmnesia;
  cfg.suite = DefenseSuite::TopoGuardAndSphinx;
  cfg.seed = 4242;
  cfg.benign_window = sim::Duration::seconds(12);
  cfg.attack_window = sim::Duration::seconds(33);
  const std::string fresh = serialize(run_link_attack(cfg));
  TrialArena arena;
  cfg.arena = &arena;
  // Twice through the same arena: the second run exercises reset() on a
  // loop the first run left dirty.
  EXPECT_EQ(serialize(run_link_attack(cfg)), fresh);
  EXPECT_EQ(serialize(run_link_attack(cfg)), fresh);
}

TEST(TrialRunnerTest, DisablingInvariantCheckerIsResultNeutral) {
  // Benches turn the audit battery off for wall-clock; every simulated
  // number must survive unchanged (the hook is read-only).
  HijackConfig cfg;
  cfg.suite = DefenseSuite::TopoGuard;
  cfg.seed = 2024;
  const HijackOutcome audited = run_hijack(cfg);
  cfg.check_invariants = false;
  const HijackOutcome bare = run_hijack(cfg);
  EXPECT_GT(audited.invariant_sweeps, 0u);
  EXPECT_EQ(bare.invariant_sweeps, 0u);
  // Strip the checker counters (the knob's only legitimate effect) and
  // compare everything else bit for bit.
  HijackOutcome a = audited, b = bare;
  a.invariant_sweeps = b.invariant_sweeps = 0;
  a.invariant_violations = b.invariant_violations = 0;
  EXPECT_EQ(serialize(a), serialize(b));
}

// ---------------------------------------------------------------------
// parse_jobs_value and the --jobs flag (a malformed --jobs must be
// rejected, not silently treated as the hardware default)
// ---------------------------------------------------------------------

TEST(ParseJobsTest, AcceptsPlainNonNegativeIntegers) {
  EXPECT_EQ(parse_jobs_value("0"), std::size_t{0});
  EXPECT_EQ(parse_jobs_value("1"), std::size_t{1});
  EXPECT_EQ(parse_jobs_value("8"), std::size_t{8});
  EXPECT_EQ(parse_jobs_value("64"), std::size_t{64});
  EXPECT_EQ(parse_jobs_value("007"), std::size_t{7});
}

TEST(ParseJobsTest, RejectsMalformedValues) {
  EXPECT_FALSE(parse_jobs_value(nullptr).has_value());
  EXPECT_FALSE(parse_jobs_value("").has_value());
  EXPECT_FALSE(parse_jobs_value("abc").has_value());
  EXPECT_FALSE(parse_jobs_value("-1").has_value());
  EXPECT_FALSE(parse_jobs_value("+4").has_value());
  EXPECT_FALSE(parse_jobs_value("4x").has_value());
  EXPECT_FALSE(parse_jobs_value("4 ").has_value());
  EXPECT_FALSE(parse_jobs_value(" 4").has_value());
  EXPECT_FALSE(parse_jobs_value("1e3").has_value());
  EXPECT_FALSE(parse_jobs_value("0x10").has_value());
  // 2^64 overflows: must be rejected, not wrapped.
  EXPECT_FALSE(parse_jobs_value("18446744073709551616").has_value());
}

TEST(ParseJobsTest, ParsesBothFlagSpellings) {
  const auto jobs_of = [](std::vector<const char*> argv) {
    std::size_t jobs = 0;
    std::size_t trials = 0;
    parse_cli(static_cast<int>(argv.size()), const_cast<char**>(argv.data()),
              {cli_count("--jobs", jobs, "0 = hardware default"),
               cli_count("--trials", trials, "0 = bench default")});
    return jobs;
  };
  EXPECT_EQ(jobs_of({"bench", "--jobs=8"}), 8u);
  EXPECT_EQ(jobs_of({"bench", "--jobs", "3"}), 3u);
  EXPECT_EQ(jobs_of({"bench", "--trials", "10"}), 0u);
}

TEST(TrialRunnerTest, ParallelTrialsActuallyRunOnPoolThreads) {
  // Guard against a silent fallback to serial execution: 4 trials on 4
  // workers rendezvous — each blocks until all 4 are resident at once.
  // A serial runner can never satisfy the rendezvous; the wall-clock
  // deadline keeps a broken pool from deadlocking the test.
  TrialRunner runner{{4}};
  std::atomic<int> inside{0};
  std::atomic<bool> rendezvous{false};
  runner.map(4, [&](std::size_t) {
    if (++inside == 4) rendezvous.store(true);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!rendezvous.load() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    --inside;
    return 0;
  });
  EXPECT_TRUE(rendezvous.load());
}

}  // namespace
}  // namespace tmg::scenario
