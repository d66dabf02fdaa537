// Discrete-event simulation loop.
//
// A single-threaded priority-queue scheduler. Events at equal timestamps
// fire in insertion order, which (together with the deterministic Rng)
// makes every experiment bit-reproducible.
//
// Hot-path layout: the pending queue is a binary heap over a flat
// std::vector with sequence-number tie-breaking, and callbacks are
// stored in a small-buffer-optimized InlineFn<64> — a scheduled lambda
// capturing up to 64 bytes costs no callback allocation.
//
// The heap itself holds only 24-byte POD records (time, seq, slot
// index); the callback and cancellation state live in a stable slab
// recycled through a free list. Heap sifts therefore move trivially
// copyable structs instead of running InlineFn relocation thunks —
// the dominant per-event cost before this layout. Fire-and-forget
// events scheduled via post_at/post_after additionally skip the
// TimerHandle control-block allocation entirely.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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

  /// Schedule `fn` to run at absolute time `at` (>= now()).
  TimerHandle schedule_at(SimTime at, EventFn fn);

  /// Schedule `fn` to run `delay` from now. Negative delays are clamped
  /// to zero (models "immediately, after the current event").
  TimerHandle schedule_after(Duration delay, EventFn fn);

  /// Fire-and-forget variants: identical ordering semantics to
  /// schedule_at/schedule_after, but no TimerHandle is produced and no
  /// per-event control block is allocated. Use for events that are never
  /// cancelled (packet deliveries, flow-mod applies, periodic rounds that
  /// re-arm themselves); keep schedule_* when the caller stores the handle.
  void post_at(SimTime at, EventFn fn);
  void post_after(Duration delay, EventFn fn);

  /// Run events until the queue drains or the clock passes `deadline`.
  /// Events stamped exactly at `deadline` do run.
  void run_until(SimTime deadline);

  /// Run until the queue is empty. Only safe for workloads without
  /// self-perpetuating periodic timers.
  void run();

  /// Execute the single earliest pending event. Returns false if the
  /// queue was empty (clock unchanged).
  bool step();

  /// Return the loop to its just-constructed observable state — clock at
  /// zero, no pending events, zero executed count, no hook or probe —
  /// while keeping the heap/slab vector capacity warm. This is the
  /// arena-reset contract (DESIGN.md §7): a reset loop must be
  /// observationally identical to a fresh one, so per-worker trial
  /// arenas can reuse the allocation slabs across trials without
  /// affecting any simulated result. Outstanding TimerHandles become
  /// inert (their events never fire).
  void reset();

  /// Queue entries physically present, including cancelled-but-unpopped
  /// ones. Prefer live_events() for "how much work is left".
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }

  /// Events that will actually fire: queue size minus cancelled entries
  /// still awaiting lazy removal. O(1).
  [[nodiscard]] std::size_t live_events() const {
    return heap_.size() - *cancelled_in_queue_;
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
  /// POD heap record; the callback lives in slots_[slot].
  struct Entry {
    SimTime at;
    std::uint64_t seq;  // tie-break: insertion order
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  /// Stable storage for a pending event's callback and (optional)
  /// cancellation state; recycled through an intrusive free list.
  struct Slot {
    EventFn fn;
    /// Null for post_at/post_after events (never cancellable).
    std::shared_ptr<TimerHandle::State> state;
    std::uint32_t next_free = 0;
  };

  [[nodiscard]] bool slot_cancelled(std::uint32_t slot) const {
    const auto& state = slots_[slot].state;
    return state && state->cancelled;
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void push_entry(SimTime at, std::uint32_t slot);

  /// Drop cancelled entries when they dominate the queue, so a workload
  /// that schedules-and-cancels heavily (e.g. per-packet timeouts) keeps
  /// memory and pop cost proportional to *live* events. In-place
  /// erase + re-heapify: O(n), no element is copied more than once.
  void maybe_compact();

  /// Pop the heap top into a local Entry.
  Entry pop_top();

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  // Min-heap on (at, seq) over a flat vector (std::push_heap/pop_heap
  // with the inverted `Later` comparator).
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::shared_ptr<std::size_t> cancelled_in_queue_;
  std::function<void()> post_event_hook_;
  std::uint64_t post_event_every_ = 0;
  LoopProbe* probe_ = nullptr;
};

}  // namespace tmg::sim
