// Per-worker trial arena: a warm event loop reused across trials.
//
// The parallel trial runner executes thousands-to-millions of short
// experiments. A fresh sim::EventLoop per trial would allocate its
// callback slots and queue buckets from nothing every time. A
// TrialArena keeps one EventLoop per worker alive for the whole sweep;
// acquire() hands it out freshly reset, with the slot chunks and small
// bucket buffers of the previous trial still in place.
//
// The reset contract (DESIGN.md §7): a reset arena must be
// *observationally identical* to a fresh one — clock at zero, empty
// queue, zero executed count, no hook/probe — so running a trial in an
// arena cannot change any simulated number. acquire() audits the
// contract on every call (TMG_ASSERT), and
// tests/trial_runner_test.cpp proves the stronger end-to-end property:
// experiment outcomes through a recycled arena are byte-identical to
// fresh-testbed runs.
//
// Threading: an arena is single-threaded by construction — each worker
// indexes its own slot in a per-sweep arena vector with
// TrialRunner::worker_slot(), so no arena is ever shared between
// threads.
#pragma once

#include <cstdint>

#include "sim/event_loop.hpp"

namespace tmg::scenario {

class TrialArena {
 public:
  TrialArena() = default;
  TrialArena(const TrialArena&) = delete;
  TrialArena& operator=(const TrialArena&) = delete;

  /// Reset the warm loop and audit that it is observationally fresh.
  /// Pass the result to TestbedOptions::loop (the testbed borrows it;
  /// it must not outlive the arena).
  sim::EventLoop& acquire();

  /// The arena's loop as-is, without reset (post-trial inspection).
  [[nodiscard]] sim::EventLoop& loop() { return loop_; }

  /// Trials served so far (acquire() calls).
  [[nodiscard]] std::uint64_t trials_served() const {
    return trials_served_;
  }

 private:
  sim::EventLoop loop_;
  std::uint64_t trials_served_ = 0;
};

}  // namespace tmg::scenario
