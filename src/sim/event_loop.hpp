// Discrete-event simulation loop.
//
// A single-threaded scheduler. Events at equal timestamps fire in
// insertion order, which (together with the deterministic Rng) makes
// every experiment bit-reproducible.
//
// Hot-path layout:
//  - The pending queue is a radix heap on the event time. Bucket 0
//    holds the entries stamped exactly `base_` (the earliest queued
//    time), read first in, first out; bucket b >= 1 holds the entries
//    whose time first differs from `base_` at bit b-1. A push is one
//    bit scan and an append. A pop reads bucket 0; when it is empty, the
//    lowest non-empty bucket (found through a 64-bit occupancy mask) is
//    redistributed against its earliest time. Queue entries are 16-byte
//    PODs (time, slot).
//  - Callbacks live in slots that never move: fixed-size chunks of
//    `Slot`s recycled through an intrusive free list. post_* and
//    schedule_* construct the callable straight into its slot
//    (InlineFn::assign), and step() runs and destroys it there with one
//    call (InlineFn::consume) before freeing the slot, so a callback is
//    never relocated. Callables up to 64 bytes take no allocation.
//  - Fire-and-forget events scheduled via post_at/post_after skip the
//    TimerHandle control-block allocation entirely.
//
// Why the order is exact:
//  - Events stamped alike fire in insertion order without a sequence
//    number. An entry's bucket is a function of its time and `base_`
//    alone, so entries stamped alike always share a bucket, and every
//    operation keeps them in insertion order: a push appends the newest
//    entry, a refill or a rebase moves a bucket's entries in order into
//    buckets that hold no entry stamped alike, and compaction erases in
//    place.
//  - Entries are only pushed at or after the clock, and the clock only
//    moves forward, so no key falls below the last popped one. The
//    single exception is run_until(): its look at the next event may
//    raise `base_` past the deadline at which it parks the clock, and a
//    later post between the two is re-bucketed against the lower time
//    (rebase), which moves only the entries below that post's bucket.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace tmg::sim {

/// Callback type for scheduled events. 64 bytes of inline capture space
/// covers the packet deliveries, the timers and every control message
/// but a Flow-Mod (the packet paths pass shared_ptr payloads precisely
/// to stay under it). Larger captures take one heap cell each.
using EventFn = InlineFn<64>;

/// Handle to a scheduled event; allows cancellation. Default-constructed
/// handles are inert. Cancelling an already-fired event is a no-op.
class TimerHandle {
 public:
  TimerHandle() = default;

  /// Prevent the event from firing. Safe to call repeatedly.
  void cancel();

  /// True if the event has neither fired nor been cancelled.
  [[nodiscard]] bool pending() const;

 private:
  friend class EventLoop;
  struct State {
    bool cancelled = false;
    bool fired = false;
    /// Live count of cancelled-but-unpopped queue entries, shared with
    /// the owning loop so live_events() stays O(1). Shared ownership
    /// keeps cancel() safe even after the loop is destroyed.
    std::shared_ptr<std::size_t> cancelled_in_queue;
  };
  explicit TimerHandle(std::shared_ptr<State> state)
      : state_{std::move(state)} {}
  std::shared_ptr<State> state_;
};

/// Profiling probe interface (implemented by obs::Observability). The
/// loop calls it after every executed event when attached; detached
/// (the default) costs one pointer compare per event, and the
/// simulated results are identical either way — probes only read.
class LoopProbe {
 public:
  virtual ~LoopProbe() = default;
  /// `advanced` is how far the clock moved for this event (zero for
  /// same-timestamp cascades); `live_after` is live_events() after it.
  virtual void on_event_executed(SimTime now, Duration advanced,
                                 std::size_t live_after) = 0;
};

/// The simulation clock plus the pending-event queue.
class EventLoop {
 public:
  EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (>= now()). `fn` is any
  /// callable taking no arguments (an EventFn or a std::function too);
  /// it is built in the event's slot and never moved after.
  template <typename F>
  TimerHandle schedule_at(SimTime at, F&& fn) {
    Slot& slot = *free_slot();
    slot.fn.assign(std::forward<F>(fn));
    return enqueue_cancellable(at, slot);
  }

  /// Schedule `fn` to run `delay` from now. Negative delays are clamped
  /// to zero (models "immediately, after the current event").
  template <typename F>
  TimerHandle schedule_after(Duration delay, F&& fn) {
    return schedule_at(after(delay), std::forward<F>(fn));
  }

  /// Fire-and-forget variants: identical ordering semantics to
  /// schedule_at/schedule_after, but no TimerHandle is produced and no
  /// per-event control block is allocated. Use for events that are never
  /// cancelled (packet deliveries, flow-mod applies, periodic rounds that
  /// re-arm themselves); keep schedule_* when the caller stores the handle.
  template <typename F>
  void post_at(SimTime at, F&& fn) {
    Slot& slot = *free_slot();
    slot.fn.assign(std::forward<F>(fn));
    enqueue(at, slot);
  }
  template <typename F>
  void post_after(Duration delay, F&& fn) {
    post_at(after(delay), std::forward<F>(fn));
  }

  /// Run events until the queue drains or the clock passes `deadline`.
  /// Events stamped exactly at `deadline` do run.
  void run_until(SimTime deadline);

  /// Run until the queue is empty. Only safe for workloads without
  /// self-perpetuating periodic timers.
  void run();

  /// Execute the single earliest pending event. Returns false if the
  /// queue was empty (clock unchanged). A callback that throws stays
  /// owned by its slot until reset() or the destructor destroys it.
  bool step();

  /// Return the loop to its just-constructed observable state — clock at
  /// zero, no pending events, zero executed count, no hook or probe —
  /// while keeping the slot chunks and the small bucket buffers warm.
  /// This is the arena-reset contract (DESIGN.md §7d): a reset loop must
  /// be observationally identical to a fresh one, so per-worker trial
  /// arenas can reuse the allocations across trials without affecting
  /// any simulated result. Every callback still held is destroyed,
  /// including one that threw. Outstanding TimerHandles become inert:
  /// their events never fire, pending() reports false, and cancel() is
  /// a no-op.
  void reset();

  /// Queue entries physically present, including cancelled-but-unpopped
  /// ones. Prefer live_events() for "how much work is left".
  [[nodiscard]] std::size_t pending_events() const { return size_; }

  /// Events that will actually fire: queue size minus cancelled entries
  /// still awaiting lazy removal. O(1).
  [[nodiscard]] std::size_t live_events() const {
    return size_ - *cancelled_in_queue_;
  }

  /// Total events executed since construction (excludes cancelled).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Install `hook`, invoked after every `every_n`-th executed event
  /// (counted from construction). Used by the invariant checker; one
  /// hook at a time. Passing a null hook clears it.
  void set_post_event_hook(std::uint64_t every_n, std::function<void()> hook);

  /// Attach a profiling probe (borrowed; nullptr detaches). One probe at
  /// a time; independent of the post-event hook.
  void set_probe(LoopProbe* probe) { probe_ = probe; }
  [[nodiscard]] LoopProbe* probe() const { return probe_; }

 private:
  /// A pending event's callback and (optional) cancellation state. Slots
  /// live in fixed-size chunks and never move, so a callback runs where
  /// it was built even when it schedules more events.
  struct Slot {
    EventFn fn;
    /// Null for post_at/post_after events (never cancellable).
    std::shared_ptr<TimerHandle::State> state;
    Slot* next_free = nullptr;
  };
  /// POD queue record; the callback lives in *slot.
  struct Entry {
    SimTime at;
    Slot* slot;
  };

  /// Slots per chunk. A chunk is allocated when the free list runs dry
  /// and kept until the loop is destroyed.
  static constexpr std::size_t kSlotsPerChunk = 64;
  /// A drained bucket keeps its buffer up to this many entries and
  /// frees a larger one, so a flood that cascades thousands of entries
  /// through a dozen buckets does not keep each bucket's peak size.
  static constexpr std::size_t kBucketKeepCapacity = 256;
  /// Compaction runs only on queues at least this long (and at least
  /// half cancelled).
  static constexpr std::size_t kMinQueueForCompaction = 64;

  static std::uint64_t key(SimTime t) {
    return static_cast<std::uint64_t>(t.count_nanos());
  }
  [[nodiscard]] SimTime after(Duration delay) const {
    return now_ + (delay.is_negative() ? Duration::zero() : delay);
  }

  /// Head of the free list, adding a chunk when it is empty. The slot
  /// stays on the list until enqueue(), so a callable whose
  /// construction throws leaves no slot behind.
  Slot* free_slot() {
    if (free_head_ == nullptr) add_chunk();
    return free_head_;
  }
  void add_chunk();
  void release(Slot& slot) {
    slot.state.reset();
    slot.next_free = free_head_;
    free_head_ = &slot;
  }

  /// Take `slot` (the free-list head) off the list and queue it at
  /// max(at, now()).
  void enqueue(SimTime at, Slot& slot) {
    assert(static_cast<bool>(slot.fn));
    assert(&slot == free_head_);
    free_head_ = slot.next_free;
    push(at < now_ ? now_ : at, slot);
  }
  TimerHandle enqueue_cancellable(SimTime at, Slot& slot);

  void push(SimTime at, Slot& slot) {
    const std::uint64_t t = key(at);
    if (t < base_) rebase(t);
    const auto b = static_cast<unsigned>(std::bit_width(t ^ base_));
    buckets_[b].push_back(Entry{at, &slot});
    occupied_ |= std::uint64_t{1} << b;
    ++size_;
  }
  /// Lower `base_` to `t`, which is below it, moving the entries of the
  /// buckets under t's new bucket into that bucket.
  void rebase(std::uint64_t t);
  /// Bucket 0 is drained and the queue is not empty: redistribute the
  /// lowest non-empty bucket against its earliest time.
  void refill();
  /// Bucket 0's next entry, refilling it first when drained. The queue
  /// must not be empty.
  const Entry& front() {
    if (head_ == buckets_[0].size()) refill();
    return buckets_[0][head_];
  }
  /// Remove front() from the queue.
  void pop_front();
  /// Empty `bucket`, freeing a buffer larger than kBucketKeepCapacity.
  static void drain(std::vector<Entry>& bucket);

  /// Drop cancelled entries when they dominate the queue, so a workload
  /// that schedules-and-cancels heavily (e.g. per-packet timeouts) keeps
  /// memory and pop cost proportional to *live* events. In-place erase
  /// per bucket: O(n), bucket 0 keeps its order.
  void compact();

  std::array<std::vector<Entry>, 64> buckets_;
  std::size_t head_ = 0;          // next unread entry of buckets_[0]
  std::uint64_t occupied_ = 0;    // bit b >= 1: buckets_[b] non-empty
  std::uint64_t base_ = 0;        // time (ns) of bucket 0; no key is lower
  std::size_t size_ = 0;          // entries in all buckets from head_
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  Slot* free_head_ = nullptr;
  SimTime now_ = SimTime::zero();
  std::uint64_t executed_ = 0;
  std::shared_ptr<std::size_t> cancelled_in_queue_;
  std::function<void()> post_event_hook_;
  std::uint64_t post_event_every_ = 0;
  LoopProbe* probe_ = nullptr;
};

}  // namespace tmg::sim
