// Unit tests for the discrete-event kernel: time, rng, event loop,
// latency models.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
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

TEST(EventLoop, PostBelowPeekedEventAfterRunUntil) {
  // run_until() looks at the next event to decide whether to stop, and
  // parks the clock at the deadline below it. Posts made afterwards
  // between the deadline and that event must still fire first, in
  // insertion order among themselves, with the far-future entries
  // undisturbed.
  EventLoop loop;
  std::vector<int> order;
  loop.post_at(SimTime::zero() + 100_ms, [&order] { order.push_back(4); });
  loop.post_at(SimTime::zero() + 100_ms, [&order] { order.push_back(5); });
  loop.post_at(SimTime::zero() + 10_s, [&order] { order.push_back(6); });
  loop.run_until(SimTime::zero() + 50_ms);
  EXPECT_EQ(loop.now(), SimTime::zero() + 50_ms);
  EXPECT_TRUE(order.empty());
  loop.post_at(SimTime::zero() + 60_ms, [&order] { order.push_back(1); });
  loop.post_after(Duration::zero(), [&order] { order.push_back(0); });
  loop.post_at(SimTime::zero() + 60_ms, [&order] { order.push_back(2); });
  loop.post_at(SimTime::zero() + 100_ms, [&order] { order.push_back(7); });
  loop.post_at(SimTime::zero() + 99_ms, [&order] { order.push_back(3); });
  EXPECT_EQ(loop.pending_events(), 8u);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 7, 6}));
  EXPECT_EQ(loop.now(), SimTime::zero() + 10_s);
}

/// Drives an EventLoop with a seeded random mix of posts and schedules
/// (zero delays, exact-time ties, far-future times), cancellations
/// (cancel-then-reschedule, bursts that trigger compaction), posts from
/// inside callbacks, run_until deadlines that park the clock below
/// queued events followed by posts before the next queued time, and a
/// reset partway through. Each fired (id, time) is checked against a
/// reference queue ordered by (time, insertion index) that applies the
/// loop's lazy-cancellation rules, and pending_events()/live_events()
/// against the reference after every operation.
class LoopFuzz {
 public:
  LoopFuzz(std::uint64_t seed, std::shared_ptr<int> token)
      : rng_{seed}, token_{std::move(token)} {}

  void run(int ops) {
    for (int op = 0; op < ops; ++op) {
      if (op == ops / 2) do_reset();
      const std::int64_t pick = rng_.uniform_int(0, 99);
      if (pick < 30) {
        add(pick_time(), rng_.chance(0.5));
      } else if (pick < 40) {
        cancel_random();
      } else if (pick < 45) {
        cancel_then_reschedule();
      } else if (pick < 75) {
        step();
      } else if (pick < 87) {
        park_then_post_below();
      } else if (pick < 90) {
        cancel_burst();
      } else {
        run_until(pick_time());
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    while (step()) {
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(fired_, expected_);
    EXPECT_GT(parked_posts_, 0);
    EXPECT_GT(compactions_, 0);
  }

 private:
  struct Info {
    SimTime at;
    int epoch = 0;
    bool cancellable = false;  // scheduled, not posted
    bool cancelled = false;
    bool fired = false;
    TimerHandle handle;
  };
  using Key = std::tuple<std::int64_t, std::uint64_t, int>;  // time, seq, id

  enum class Mode { Step, RunUntil };

  SimTime pick_time() {
    switch (rng_.uniform_int(0, 5)) {
      case 0: return now_;  // zero delay
      case 1:               // a tie with a queued event
        if (!queue_.empty()) {
          auto it = queue_.begin();
          std::advance(it, rng_.uniform_int(
                               0, static_cast<std::int64_t>(
                                      std::min<std::size_t>(queue_.size(), 8)) -
                                      1));
          return SimTime::from_nanos(std::get<0>(*it));
        }
        return now_;
      case 2: return now_ + Duration::nanos(rng_.uniform_int(1, 16));
      case 3: return now_ + Duration::nanos(rng_.uniform_int(1, 5'000));
      case 4: return now_ + Duration::nanos(rng_.uniform_int(1, 1'000'000));
      default:
        return now_ + Duration::nanos(rng_.uniform_int(1, 1'000'000'000'000));
    }
  }

  /// Queue one event at `at` through one of the four entry points and
  /// three callable kinds; returns its id.
  int add(SimTime at, bool cancellable) {
    const int id = static_cast<int>(infos_.size());
    Info info;
    info.at = at < now_ ? now_ : at;
    info.epoch = epoch_;
    info.cancellable = cancellable;
    queue_.emplace(info.at.count_nanos(), seq_++, id);
    const bool absolute = rng_.chance(0.5);
    const Duration delay = at - now_;
    auto small = [this, id, token = token_] { on_fire(id); };
    std::array<std::uint64_t, 8> pad{};
    pad[0] = static_cast<std::uint64_t>(id);
    auto large = [this, pad, token = token_] {
      on_fire(static_cast<int>(pad[0]));
    };
    const auto submit = [&](auto&& fn) {
      if (cancellable) {
        info.handle = absolute ? loop_.schedule_at(at, std::move(fn))
                               : loop_.schedule_after(delay, std::move(fn));
      } else if (absolute) {
        loop_.post_at(at, std::move(fn));
      } else {
        loop_.post_after(delay, std::move(fn));
      }
    };
    switch (rng_.uniform_int(0, 3)) {
      case 0: submit(small); break;
      case 1: submit(large); break;
      case 2: submit(EventFn{small}); break;
      default: submit(std::function<void()>{small}); break;
    }
    infos_.push_back(std::move(info));
    return id;
  }

  void cancel(int id) {
    Info& info = infos_[static_cast<std::size_t>(id)];
    if (info.epoch == epoch_) {
      const bool live = info.cancellable && !info.cancelled && !info.fired;
      EXPECT_EQ(info.handle.pending(), live);
      if (live) {
        info.cancelled = true;
        ++cancelled_;
      }
    }
    info.handle.cancel();
    check_counts();
  }

  void cancel_random() {
    if (infos_.empty()) return;
    cancel(static_cast<int>(rng_.uniform_int(
        0, static_cast<std::int64_t>(infos_.size()) - 1)));
  }

  void cancel_then_reschedule() {
    const int id = add(pick_time(), true);
    const SimTime at = infos_[static_cast<std::size_t>(id)].at;
    cancel(id);
    add(at, true);
  }

  void cancel_burst() {
    std::vector<int> ids;
    for (int i = 0; i < 80; ++i) ids.push_back(add(pick_time(), true));
    for (int id : ids) {
      if (rng_.chance(0.9)) cancel(id);
    }
  }

  /// Park the clock at a deadline below the next queued live event,
  /// then post between the two.
  void park_then_post_below() {
    const SimTime next = next_live_time();
    if (next == SimTime::max() || next <= now_ + Duration::nanos(2)) {
      add(now_ + Duration::nanos(rng_.uniform_int(1'000, 1'000'000)), false);
      return;
    }
    const std::int64_t gap = (next - now_).count_nanos();
    run_until(now_ + Duration::nanos(rng_.uniform_int(0, gap / 2)));
    const std::int64_t room = (next - now_).count_nanos();
    if (room <= 1) return;
    const int posts = static_cast<int>(rng_.uniform_int(1, 3));
    for (int i = 0; i < posts; ++i) {
      add(now_ + Duration::nanos(rng_.uniform_int(0, room - 1)),
          rng_.chance(0.3));
      ++parked_posts_;
    }
  }

  SimTime next_live_time() const {
    for (const Key& k : queue_) {
      if (!infos_[static_cast<std::size_t>(std::get<2>(k))].cancelled) {
        return SimTime::from_nanos(std::get<0>(k));
      }
    }
    return SimTime::max();
  }

  // ---- the reference queue, applying the loop's rules ----

  void ref_compact_if_due() {
    if (queue_.size() < 64 || cancelled_ * 2 < queue_.size()) return;
    std::erase_if(queue_, [this](const Key& k) {
      return infos_[static_cast<std::size_t>(std::get<2>(k))].cancelled;
    });
    cancelled_ = 0;
    ++compactions_;
  }

  /// Drop cancelled entries at the head; true if a live head remains.
  bool ref_skip_cancelled() {
    while (!queue_.empty()) {
      const int id = std::get<2>(*queue_.begin());
      if (!infos_[static_cast<std::size_t>(id)].cancelled) return true;
      queue_.erase(queue_.begin());
      --cancelled_;
    }
    return false;
  }

  /// Pop the reference's next event as the loop is about to fire it.
  int ref_pop() {
    const std::int64_t at = std::get<0>(*queue_.begin());
    const int id = std::get<2>(*queue_.begin());
    queue_.erase(queue_.begin());
    now_ = SimTime::from_nanos(at);
    infos_[static_cast<std::size_t>(id)].fired = true;
    expected_.emplace_back(id, at);
    return id;
  }

  int ref_step() {
    ref_compact_if_due();
    return ref_skip_cancelled() ? ref_pop() : -1;
  }

  void on_fire(int id) {
    fired_.emplace_back(id, loop_.now().count_nanos());
    ++fired_in_call_;
    int want = -1;
    if (mode_ == Mode::Step) {
      want = ref_step();
    } else if (ref_skip_cancelled() &&
               std::get<0>(*queue_.begin()) <= deadline_.count_nanos()) {
      ref_compact_if_due();
      want = ref_pop();
    }
    ASSERT_EQ(id, want) << "at " << loop_.now().count_nanos();
    ASSERT_EQ(loop_.now(), now_);
    // Posts from inside the callback.
    if (rng_.chance(0.3)) {
      const int children = static_cast<int>(rng_.uniform_int(1, 2));
      for (int i = 0; i < children; ++i) add(pick_time(), rng_.chance(0.3));
    }
  }

  bool step() {
    mode_ = Mode::Step;
    fired_in_call_ = 0;
    const bool ran = loop_.step();
    if (!ran) {
      EXPECT_EQ(ref_step(), -1);
    }
    EXPECT_EQ(fired_in_call_, ran ? 1 : 0);
    check_counts();
    return ran;
  }

  void run_until(SimTime deadline) {
    mode_ = Mode::RunUntil;
    deadline_ = deadline;
    loop_.run_until(deadline);
    if (ref_skip_cancelled()) {
      EXPECT_GT(std::get<0>(*queue_.begin()), deadline.count_nanos());
    }
    if (now_ < deadline) now_ = deadline;
    EXPECT_EQ(loop_.now(), now_);
    check_counts();
  }

  void do_reset() {
    loop_.reset();
    queue_.clear();
    cancelled_ = 0;
    seq_ = 0;
    now_ = SimTime::zero();
    ++epoch_;
    check_counts();
    EXPECT_EQ(loop_.now(), SimTime::zero());
    EXPECT_EQ(loop_.events_executed(), 0u);
    // A handle from before the reset is inert.
    for (Info& info : infos_) info.handle.cancel();
    check_counts();
  }

  void check_counts() {
    ASSERT_EQ(loop_.pending_events(), queue_.size());
    ASSERT_EQ(loop_.live_events(), queue_.size() - cancelled_);
  }

  EventLoop loop_;
  Rng rng_;
  std::shared_ptr<int> token_;  // captured by every callback
  std::vector<Info> infos_;
  std::set<Key> queue_;
  std::size_t cancelled_ = 0;
  std::uint64_t seq_ = 0;
  SimTime now_ = SimTime::zero();
  int epoch_ = 0;
  Mode mode_ = Mode::Step;
  SimTime deadline_ = SimTime::zero();
  int fired_in_call_ = 0;
  std::vector<std::pair<int, std::int64_t>> fired_;
  std::vector<std::pair<int, std::int64_t>> expected_;
  int parked_posts_ = 0;
  int compactions_ = 0;
};

class EventLoopFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventLoopFuzz, FiresInReferenceOrder) {
  const auto token = std::make_shared<int>(0);
  {
    LoopFuzz fuzz{GetParam(), token};
    fuzz.run(3'000);
  }
  // Every callback was destroyed exactly once: fired, cancelled, reset
  // away or released with the loop.
  EXPECT_EQ(token.use_count(), 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventLoopFuzz,
                         ::testing::Values(1u, 7u, 2026u, 90210u));

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

/// Counts the moves of the capture it sits in.
struct MoveCounter {
  int* moves;
  explicit MoveCounter(int* m) : moves{m} {}
  MoveCounter(const MoveCounter&) = default;
  MoveCounter(MoveCounter&& other) noexcept : moves{other.moves} {
    ++*moves;
  }
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;
  ~MoveCounter() = default;
};

/// A callable that counts its runs and the destruction of its live
/// (not moved-from) instances; `Pad` bytes push it past the inline
/// buffer.
template <std::size_t Pad>
struct Tracked {
  int* runs;
  int* destroyed;
  bool live = true;
  std::array<std::byte, Pad> pad{};
  Tracked(int* r, int* d) : runs{r}, destroyed{d} {}
  Tracked(Tracked&& other) noexcept
      : runs{other.runs}, destroyed{other.destroyed}, pad{other.pad} {
    other.live = false;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    if (live) ++*destroyed;
  }
  void operator()() { ++*runs; }
};

TEST(InlineFn, AssignConstructsInPlace) {
  int moves = 0;
  int runs = 0;
  auto cb = [counter = MoveCounter{&moves}, &runs] {
    (void)counter;
    ++runs;
  };
  ASSERT_EQ(moves, 0);
  InlineFn<64> fn;
  fn.assign(cb);  // copy-constructed straight into the storage
  EXPECT_EQ(moves, 0);
  fn.assign(std::move(cb));  // one move: the construction itself
  EXPECT_EQ(moves, 1);
  fn();
  EXPECT_EQ(runs, 1);
  // Wrapping first and then assigning relocates the capture once more.
  InlineFn<64> wrapped;
  wrapped = InlineFn<64>{cb};  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moves, 2);
}

TEST(InlineFn, ConsumeRunsThenDestroysOnce) {
  int runs = 0;
  int destroyed = 0;
  InlineFn<64> small;
  small.assign(Tracked<8>{&runs, &destroyed});
  InlineFn<64> large;
  large.assign(Tracked<96>{&runs, &destroyed});
  ASSERT_TRUE(small.is_inline());
  ASSERT_FALSE(large.is_inline());
  EXPECT_EQ(destroyed, 0);
  small.consume();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(destroyed, 1);
  EXPECT_FALSE(static_cast<bool>(small));
  large.consume();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(destroyed, 2);
  EXPECT_FALSE(static_cast<bool>(large));
  small.reset();
  large.reset();
  EXPECT_EQ(destroyed, 2);  // nothing left to destroy twice
}

TEST(EventLoop, CallbacksAreBuiltAndRunInTheirSlots) {
  // Each entry point constructs the capture once from its argument and
  // runs it where it was built: no relocation on the way in or out.
  EventLoop loop;
  int moves = 0;
  int runs = 0;
  const auto make = [&moves, &runs] {
    return [counter = MoveCounter{&moves}, &runs] {
      (void)counter;
      ++runs;
    };
  };
  loop.post_at(SimTime::zero() + 1_ms, make());
  loop.post_after(2_ms, make());
  const TimerHandle a = loop.schedule_at(SimTime::zero() + 3_ms, make());
  const TimerHandle b = loop.schedule_after(4_ms, make());
  loop.run();
  EXPECT_EQ(runs, 4);
  EXPECT_EQ(moves, 4);
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(b.pending());
}

TEST(EventLoop, ThrowingEventStaysOwnedUntilReset) {
  int runs = 0;
  int destroyed = 0;
  const auto boom = [] { throw std::runtime_error("event failed"); };
  {
    EventLoop loop;
    // An inline and a heap-stored capture that throw, and one that
    // stays queued.
    loop.post_after(1_ms, [t = Tracked<8>{&runs, &destroyed}, boom] {
      boom();
    });
    loop.schedule_after(2_ms, [t = Tracked<96>{&runs, &destroyed}, boom] {
      boom();
    });
    loop.post_after(3_ms, Tracked<8>{&runs, &destroyed});
    EXPECT_THROW(loop.step(), std::runtime_error);
    EXPECT_THROW(loop.step(), std::runtime_error);
    EXPECT_EQ(destroyed, 0);  // both throwers are still owned
    EXPECT_EQ(loop.pending_events(), 1u);
    loop.reset();
    EXPECT_EQ(destroyed, 3);
    EXPECT_EQ(loop.pending_events(), 0u);
    // The reset loop runs normally.
    loop.post_after(1_ms, Tracked<96>{&runs, &destroyed});
    loop.run();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(destroyed, 4);
    // A thrower left in place when the loop is destroyed.
    loop.post_after(1_ms, [t = Tracked<8>{&runs, &destroyed}, boom] {
      boom();
    });
    EXPECT_THROW(loop.run(), std::runtime_error);
    EXPECT_EQ(destroyed, 4);
  }
  EXPECT_EQ(destroyed, 5);
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
