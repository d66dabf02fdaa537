// Unit tests for the discrete-event kernel: time, rng, event loop,
// latency models.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/inline_fn.hpp"
#include "sim/latency_model.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace tmg::sim {
namespace {

using namespace tmg::sim::literals;

// ---------------- Duration / SimTime ----------------

TEST(Duration, ConversionsRoundTrip) {
  EXPECT_EQ(Duration::millis(5).count_nanos(), 5'000'000);
  EXPECT_EQ(Duration::micros(7).count_nanos(), 7'000);
  EXPECT_EQ(Duration::seconds(2).count_nanos(), 2'000'000'000);
  EXPECT_DOUBLE_EQ(Duration::millis(5).to_millis_f(), 5.0);
  EXPECT_DOUBLE_EQ(Duration::seconds(3).to_seconds_f(), 3.0);
  EXPECT_DOUBLE_EQ(Duration::micros(9).to_micros_f(), 9.0);
}

TEST(Duration, FractionalConstructors) {
  EXPECT_EQ(Duration::from_millis_f(0.5).count_nanos(), 500'000);
  EXPECT_EQ(Duration::from_seconds_f(0.25).count_nanos(), 250'000'000);
}

TEST(Duration, Arithmetic) {
  const Duration a = 10_ms;
  const Duration b = 3_ms;
  EXPECT_EQ((a + b).count_nanos(), Duration::millis(13).count_nanos());
  EXPECT_EQ((a - b).count_nanos(), Duration::millis(7).count_nanos());
  EXPECT_EQ((a * 3).count_nanos(), Duration::millis(30).count_nanos());
  EXPECT_EQ((a / 2).count_nanos(), Duration::millis(5).count_nanos());
  EXPECT_TRUE((b - a).is_negative());
  EXPECT_EQ((-a).count_nanos(), -10'000'000);
}

TEST(Duration, Comparisons) {
  EXPECT_LT(1_ms, 2_ms);
  EXPECT_EQ(1000_us, 1_ms);
  EXPECT_GT(1_s, 999_ms);
}

TEST(Duration, CompoundAssignment) {
  Duration d = 5_ms;
  d += 5_ms;
  EXPECT_EQ(d, 10_ms);
  d -= 3_ms;
  EXPECT_EQ(d, 7_ms);
}

TEST(SimTime, Arithmetic) {
  const SimTime t = SimTime::zero() + 100_ms;
  EXPECT_EQ(t.count_nanos(), 100'000'000);
  EXPECT_EQ((t + 50_ms) - t, 50_ms);
  EXPECT_EQ((t - 40_ms).count_nanos(), 60'000'000);
  EXPECT_LT(SimTime::zero(), t);
}

TEST(TimeFormatting, HumanReadable) {
  EXPECT_EQ(to_string(Duration::nanos(12)), "12ns");
  EXPECT_EQ(to_string(Duration::micros(3)), "3.00us");
  EXPECT_EQ(to_string(Duration::from_millis_f(3.25)), "3.250ms");
  EXPECT_EQ(to_string(Duration::seconds(2)), "2.000s");
  EXPECT_EQ(to_string(SimTime::zero() + 1500_ms), "1.500s");
}

// ---------------- Rng ----------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01InRange) {
  Rng rng{7};
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng{9};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const std::int64_t v = rng.uniform_int(3, 8);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 8);
    saw_lo |= v == 3;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng{10};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, NormalMomentsApproximate) {
  Rng rng{11};
  const int n = 200'000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(20.0, 5.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 20.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 5.0, 0.1);
}

TEST(Rng, LognormalMeanMatchesAnalytic) {
  Rng rng{12};
  const double mu = std::log(10.0), sigma = 0.5;
  const int n = 400'000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.lognormal(mu, sigma);
  const double analytic = std::exp(mu + sigma * sigma / 2.0);
  EXPECT_NEAR(sum / n, analytic, analytic * 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng{13};
  const int n = 200'000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, ChanceFrequency) {
  Rng rng{14};
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent{15};
  Rng child = parent.fork();
  // Child stream differs from parent's continuation.
  bool differs = false;
  Rng parent2{15};
  (void)parent2.next_u64();  // same state advance as fork()
  for (int i = 0; i < 16; ++i) {
    if (child.next_u64() != parent2.next_u64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

// ---------------- EventLoop ----------------

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(30_ms, [&] { order.push_back(3); });
  loop.schedule_after(10_ms, [&] { order.push_back(1); });
  loop.schedule_after(20_ms, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, TiesBreakByInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_after(5_ms, [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, ClockAdvancesToEventTime) {
  EventLoop loop;
  SimTime seen;
  loop.schedule_after(42_ms, [&] { seen = loop.now(); });
  loop.run();
  EXPECT_EQ(seen, SimTime::zero() + 42_ms);
  EXPECT_EQ(loop.now(), SimTime::zero() + 42_ms);
}

TEST(EventLoop, RunUntilStopsAtDeadlineAndAdvancesClock) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_after(10_ms, [&] { ++fired; });
  loop.schedule_after(50_ms, [&] { ++fired; });
  loop.run_until(SimTime::zero() + 20_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), SimTime::zero() + 20_ms);
  loop.run_until(SimTime::zero() + 100_ms);
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, EventAtDeadlineRuns) {
  EventLoop loop;
  bool fired = false;
  loop.schedule_after(20_ms, [&] { fired = true; });
  loop.run_until(SimTime::zero() + 20_ms);
  EXPECT_TRUE(fired);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool fired = false;
  TimerHandle h = loop.schedule_after(10_ms, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, HandleNotPendingAfterFire) {
  EventLoop loop;
  TimerHandle h = loop.schedule_after(1_ms, [] {});
  loop.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op, must not crash
}

TEST(EventLoop, EventsScheduledDuringExecutionRun) {
  EventLoop loop;
  int depth = 0;
  loop.schedule_after(1_ms, [&] {
    ++depth;
    loop.schedule_after(1_ms, [&] { ++depth; });
  });
  loop.run();
  EXPECT_EQ(depth, 2);
}

TEST(EventLoop, NegativeDelayClampsToNow) {
  EventLoop loop;
  loop.schedule_after(10_ms, [] {});
  loop.run();
  bool fired = false;
  loop.schedule_after(Duration::millis(-5), [&] { fired = true; });
  loop.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.now(), SimTime::zero() + 10_ms);
}

TEST(EventLoop, StepExecutesOne) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_after(1_ms, [&] { ++fired; });
  loop.schedule_after(2_ms, [&] { ++fired; });
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(loop.step());
}

TEST(EventLoop, CountsExecutedEvents) {
  EventLoop loop;
  for (int i = 0; i < 7; ++i) loop.schedule_after(1_ms, [] {});
  TimerHandle h = loop.schedule_after(1_ms, [] {});
  h.cancel();
  loop.run();
  EXPECT_EQ(loop.events_executed(), 7u);
}

TEST(EventLoop, CancelAfterFireDoesNotCorruptLiveCount) {
  EventLoop loop;
  TimerHandle h = loop.schedule_after(1_ms, [] {});
  loop.schedule_after(2_ms, [] {});
  EXPECT_TRUE(loop.step());  // fires h
  h.cancel();                // no-op: must not decrement the live count
  h.cancel();
  EXPECT_EQ(loop.live_events(), 1u);
  EXPECT_EQ(loop.pending_events(), 1u);
}

TEST(EventLoop, DoubleCancelCountsOnce) {
  EventLoop loop;
  TimerHandle h = loop.schedule_after(1_ms, [] {});
  loop.schedule_after(2_ms, [] {});
  h.cancel();
  h.cancel();
  EXPECT_EQ(loop.pending_events(), 2u);
  EXPECT_EQ(loop.live_events(), 1u);
}

TEST(EventLoop, CancelSurvivesLoopDestruction) {
  TimerHandle h;
  {
    EventLoop loop;
    h = loop.schedule_after(1_ms, [] {});
  }
  h.cancel();  // loop is gone; shared state keeps this safe
  EXPECT_FALSE(h.pending());
}

TEST(EventLoop, LiveEventsExcludesCancelledEntries) {
  EventLoop loop;
  std::vector<TimerHandle> handles;
  handles.reserve(10);
  for (int i = 0; i < 10; ++i) {
    handles.push_back(loop.schedule_after(Duration::millis(i + 1), [] {}));
  }
  for (int i = 0; i < 4; ++i) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(loop.pending_events(), 10u);  // lazy: entries still queued
  EXPECT_EQ(loop.live_events(), 6u);
  loop.run();
  EXPECT_EQ(loop.events_executed(), 6u);
  EXPECT_EQ(loop.live_events(), 0u);
}

TEST(EventLoop, CompactionDropsCancelledBacklog) {
  // Cancel-heavy workloads (per-packet timeouts) must not accumulate
  // dead entries: once cancelled entries dominate a large queue, the
  // next step() physically drops them.
  EventLoop loop;
  std::vector<TimerHandle> handles;
  handles.reserve(128);
  for (int i = 0; i < 128; ++i) {
    handles.push_back(loop.schedule_after(Duration::millis(i + 1), [] {}));
  }
  for (int i = 0; i < 100; ++i) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(loop.pending_events(), 128u);
  EXPECT_EQ(loop.live_events(), 28u);
  EXPECT_TRUE(loop.step());  // compacts, then fires the earliest live one
  EXPECT_EQ(loop.pending_events(), 27u);
  EXPECT_EQ(loop.live_events(), 27u);
  loop.run();
  EXPECT_EQ(loop.events_executed(), 28u);
}

TEST(EventLoop, RunUntilWithCancelledThenRescheduledTimersNearDeadline) {
  // Regression for the heap-based queue: a timer cancelled and then
  // re-armed at the same tick near a run_until deadline must fire
  // exactly once, and cancelled entries popped at the deadline must
  // not advance the clock past it.
  EventLoop loop;
  int fired = 0;
  TimerHandle first =
      loop.schedule_after(Duration::millis(10), [&] { fired += 100; });
  first.cancel();
  // Re-arm at the same deadline; only this one may run.
  loop.schedule_after(Duration::millis(10), [&] { ++fired; });
  // A cancelled entry *behind* the deadline must be skipped silently.
  TimerHandle behind =
      loop.schedule_after(Duration::millis(5), [&] { fired += 100; });
  behind.cancel();
  // An entry beyond the deadline must stay queued.
  loop.schedule_after(Duration::millis(20), [&] { fired += 100; });

  loop.run_until(SimTime::from_nanos(0) + Duration::millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), SimTime::from_nanos(0) + Duration::millis(10));
  EXPECT_EQ(loop.live_events(), 1u);  // only the 20 ms event remains
  loop.run();
  EXPECT_EQ(fired, 101);
}

TEST(EventLoop, LiveEventsExactAcrossCompaction) {
  // live_events() must stay exact while compaction physically drops
  // cancelled entries and while survivors are cancelled afterwards.
  EventLoop loop;
  std::vector<TimerHandle> handles;
  handles.reserve(200);
  for (int i = 0; i < 200; ++i) {
    handles.push_back(
        loop.schedule_after(Duration::millis(i + 1), [] {}));
  }
  // Cancel 150 of 200: next step() triggers compaction (>= half dead).
  for (int i = 0; i < 150; ++i) {
    handles[static_cast<std::size_t>(i)].cancel();
  }
  EXPECT_EQ(loop.live_events(), 50u);
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(loop.pending_events(), 49u);  // compacted + one fired
  EXPECT_EQ(loop.live_events(), 49u);
  // Cancelling a survivor after compaction must still be counted.
  handles[160].cancel();
  EXPECT_EQ(loop.live_events(), 48u);
  // Double-cancel of an already-compacted entry must not skew counts.
  handles[0].cancel();
  EXPECT_EQ(loop.live_events(), 48u);
  loop.run();
  EXPECT_EQ(loop.events_executed(), 49u);
  EXPECT_EQ(loop.live_events(), 0u);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoop, CancelledTimerRescheduledAcrossCompactionFiresOnce) {
  // A handle whose entry is compacted away must stay inert: re-arming
  // the same logical timer is a fresh schedule_after, and the stale
  // handle's cancel() must not affect the new entry.
  EventLoop loop;
  int fired = 0;
  TimerHandle stale =
      loop.schedule_after(Duration::millis(999), [&] { fired += 100; });
  stale.cancel();
  std::vector<TimerHandle> filler;
  filler.reserve(100);
  for (int i = 0; i < 100; ++i) {
    filler.push_back(loop.schedule_after(Duration::millis(1), [] {}));
  }
  for (auto& h : filler) h.cancel();
  // Queue: 101 entries, 101 cancelled -> step() compacts to empty and
  // returns false without firing anything.
  EXPECT_FALSE(loop.step());
  TimerHandle fresh =
      loop.schedule_after(Duration::millis(999), [&] { ++fired; });
  stale.cancel();  // stale handle again: must be a no-op
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.events_executed(), 1u);
}

// ---------------- InlineFn ----------------

TEST(InlineFn, SmallCallablesStoredInline) {
  int hits = 0;
  auto small = [&hits] { ++hits; };
  InlineFn<64> fn{small};
  EXPECT_TRUE(fn.is_inline());
  EXPECT_EQ(InlineFn<64>::stores_inline<decltype(small)>, fn.is_inline());
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFn, LargeCallablesFallBackToHeap) {
  std::array<std::uint64_t, 16> payload{};  // 128 bytes > 64-byte buffer
  payload[0] = 7;
  payload[15] = 9;
  int sum = 0;
  auto large = [payload, &sum] {
    sum += static_cast<int>(payload[0] + payload[15]);
  };
  InlineFn<64> fn{large};
  EXPECT_FALSE(fn.is_inline());
  EXPECT_EQ(InlineFn<64>::stores_inline<decltype(large)>, fn.is_inline());
  fn();
  EXPECT_EQ(sum, 16);
}

TEST(InlineFn, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  InlineFn<64> a{[counter] { ++*counter; }};
  EXPECT_EQ(counter.use_count(), 2);
  InlineFn<64> b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(*counter, 1);
  InlineFn<64> c;
  c = std::move(b);
  c();
  EXPECT_EQ(*counter, 2);
  EXPECT_EQ(counter.use_count(), 2);  // exactly one live copy of the capture
}

TEST(InlineFn, MoveOnlyCapturesSupported) {
  auto flag = std::make_unique<int>(41);
  int out = 0;
  InlineFn<64> fn{[flag = std::move(flag), &out] { out = *flag + 1; }};
  InlineFn<64> moved{std::move(fn)};
  moved();
  EXPECT_EQ(out, 42);
}

TEST(InlineFn, DestructionReleasesCapture) {
  auto counter = std::make_shared<int>(0);
  {
    InlineFn<64> inline_fn{[counter] {}};
    std::array<std::uint64_t, 16> big{};
    InlineFn<64> heap_fn{[counter, big] { (void)big; }};
    EXPECT_FALSE(heap_fn.is_inline());
    EXPECT_EQ(counter.use_count(), 3);
  }
  EXPECT_EQ(counter.use_count(), 1);  // both storage modes destroyed
}

TEST(EventLoop, ResetIsObservationallyFresh) {
  // The arena-reset contract (DESIGN.md §7d): after reset(), a dirty
  // loop must be indistinguishable from a default-constructed one —
  // same clock, counts, tie-breaking sequence, and hook state — so
  // TrialArena can recycle loops across trials without moving a single
  // simulated number.
  const auto drive = [](EventLoop& loop) {
    std::vector<int> order;
    loop.schedule_after(5_ms, [&order] { order.push_back(1); });
    loop.schedule_after(5_ms, [&order] { order.push_back(2); });
    loop.post_after(3_ms, [&order] { order.push_back(0); });
    loop.run();
    std::ostringstream os;
    for (int v : order) os << v;
    os << ';' << loop.now().count_nanos() << ';' << loop.events_executed();
    return std::move(os).str();
  };
  EventLoop fresh;
  const std::string expect = drive(fresh);

  EventLoop recycled;
  // Dirty it thoroughly: pending events left unrun, a dead hook, an
  // advanced clock, live cancel state.
  int hook_calls = 0;
  recycled.set_post_event_hook(1, [&hook_calls] { ++hook_calls; });
  recycled.schedule_after(1_ms, [] {});  // fires before the reset
  auto handle = recycled.schedule_after(5_ms, [] { FAIL() << "stale"; });
  recycled.run_until(SimTime::zero() + 1500_us);  // clock mid-flight
  recycled.schedule_after(10_s, [] { FAIL() << "stale"; });
  recycled.reset();

  EXPECT_EQ(recycled.now(), SimTime::zero());
  EXPECT_EQ(recycled.pending_events(), 0u);
  EXPECT_EQ(recycled.live_events(), 0u);
  EXPECT_EQ(recycled.events_executed(), 0u);
  const int hook_calls_before = hook_calls;
  EXPECT_EQ(drive(recycled), expect);
  EXPECT_EQ(hook_calls, hook_calls_before);  // old hook never fires again
  // A pre-reset handle is inert: cancelling it must not corrupt the new
  // epoch's live-event accounting.
  handle.cancel();
  EXPECT_EQ(recycled.live_events(), 0u);
  EXPECT_EQ(recycled.pending_events(), 0u);
}

TEST(EventLoop, ResetKeepsSlabCapacityWorking) {
  // Not observable, but the recycled slab must still run correctly: a
  // second batch after reset reuses slots and fires in order.
  EventLoop loop;
  std::vector<int> order;
  for (int round = 0; round < 3; ++round) {
    order.clear();
    for (int i = 0; i < 100; ++i) {
      loop.schedule_after(Duration::micros(100 - i), [&order, i] {
        order.push_back(i);
      });
    }
    loop.run();
    ASSERT_EQ(order.size(), 100u);
    EXPECT_EQ(order.front(), 99);  // smallest delay first
    EXPECT_EQ(order.back(), 0);
    loop.reset();
  }
}

TEST(EventLoop, PostEventHookFiresAtCadence) {
  EventLoop loop;
  int hook_calls = 0;
  loop.set_post_event_hook(3, [&] { ++hook_calls; });
  for (int i = 0; i < 10; ++i) loop.schedule_after(1_ms, [] {});
  loop.run();
  EXPECT_EQ(hook_calls, 3);  // after events 3, 6, 9
  loop.set_post_event_hook(0, nullptr);
  for (int i = 0; i < 5; ++i) loop.schedule_after(1_ms, [] {});
  loop.run();
  EXPECT_EQ(hook_calls, 3);  // cleared hook stays silent
}

// ---------------- Latency models ----------------

TEST(LatencyModel, FixedAlwaysSame) {
  Rng rng{1};
  FixedLatency m{5_ms};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(m.sample(rng), 5_ms);
  EXPECT_EQ(m.nominal(), 5_ms);
}

TEST(LatencyModel, NormalStaysAboveFloor) {
  Rng rng{2};
  NormalLatency m{1_ms, 5_ms};  // huge sd to force negatives
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(m.sample(rng), Duration::micros(1));
  }
}

TEST(LatencyModel, NormalMeanApproximate) {
  Rng rng{3};
  NormalLatency m{20_ms, 2_ms};
  double sum = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += m.sample(rng).to_millis_f();
  EXPECT_NEAR(sum / n, 20.0, 0.2);
}

TEST(LatencyModel, MicroburstProducesTail) {
  Rng rng{4};
  MicroburstLatency m{5_ms, Duration::micros(300), 0.03,
                      Duration::from_millis_f(2.5)};
  int bursts = 0;
  const int n = 20'000;
  double max_ms = 0.0;
  for (int i = 0; i < n; ++i) {
    const double ms = m.sample(rng).to_millis_f();
    max_ms = std::max(max_ms, ms);
    if (ms > 7.0) ++bursts;
  }
  // Roughly 3% of packets ride a burst; the tail reaches ~12 ms as in
  // paper Fig. 10.
  EXPECT_GT(bursts, n / 100);
  EXPECT_LT(bursts, n / 10);
  EXPECT_GT(max_ms, 10.0);
}

TEST(LatencyModel, FactoriesProduceModels) {
  Rng rng{5};
  auto f = make_fixed(1_ms);
  auto n = make_normal(2_ms, 100_us);
  auto b = make_microburst(5_ms, 300_us, 0.05, 2_ms);
  EXPECT_EQ(f->nominal(), 1_ms);
  EXPECT_EQ(n->nominal(), 2_ms);
  EXPECT_EQ(b->nominal(), 5_ms);
  EXPECT_GT(f->sample(rng).count_nanos(), 0);
  EXPECT_GT(n->sample(rng).count_nanos(), 0);
  EXPECT_GT(b->sample(rng).count_nanos(), 0);
}

}  // namespace
}  // namespace tmg::sim
