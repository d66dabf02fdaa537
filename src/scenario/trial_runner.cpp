#include "scenario/trial_runner.hpp"

#include <atomic>
#include <exception>
#include <limits>
#include <mutex>

#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"

namespace tmg::scenario {

TrialRunner::TrialRunner(TrialRunnerOptions options)
    : jobs_{options.jobs == 0 ? sim::ThreadPool::hardware_jobs()
                              : options.jobs},
      legacy_{options.legacy} {}

std::uint64_t TrialRunner::trial_seed(std::uint64_t base_seed,
                                      std::size_t trial_index) {
  // SplitMix64 over base ^ index: consecutive indices map to
  // decorrelated seeds, and the result depends only on (base, index).
  return sim::splitmix64(base_seed ^
                         static_cast<std::uint64_t>(trial_index));
}

std::size_t TrialRunner::worker_slot() {
  return sim::ThreadPool::worker_index();
}

void TrialRunner::reset_trial_thread_state() { net::reset_trace_ids(); }

std::size_t TrialRunner::chunk_size(std::size_t trials) {
  return (trials + kMaxChunks - 1) / kMaxChunks;
}

std::size_t TrialRunner::chunk_count(std::size_t trials) {
  if (trials == 0) return 0;
  const std::size_t size = chunk_size(trials);
  return (trials + size - 1) / size;
}

namespace {

/// Internal carrier pairing a thrown exception with the exact trial
/// index it came from; unwrapped before anything leaves the runner.
struct TrialIndexedError {
  std::size_t index;
  std::exception_ptr inner;
};

/// Per-trial isolation: whatever ran on this worker thread before must
/// not show through in the trial's packet trace ids.
void run_one_trial(const std::function<void(std::size_t)>& fn,
                   std::size_t index) {
  TrialRunner::reset_trial_thread_state();
  fn(index);
}

/// Constant-space replacement for the old O(trials) exception_ptr
/// vector: workers race to record failures, the mutex arbitrates, and
/// only the lowest trial index wins — so the rethrown exception is the
/// lowest-numbered one that actually failed, at any job count.
struct LowestErrorSlot {
  std::mutex mu;
  std::size_t index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;
  /// Lock-free mirror of `index` for the workers' skip decision.
  std::atomic<std::size_t> lowest{std::numeric_limits<std::size_t>::max()};

  void record(std::size_t i, std::exception_ptr e) {
    std::lock_guard<std::mutex> lock{mu};
    if (i < index) {
      index = i;
      error = std::move(e);
      lowest.store(i, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] bool any() const {
    return lowest.load(std::memory_order_relaxed) !=
           std::numeric_limits<std::size_t>::max();
  }
};

}  // namespace

void TrialRunner::run_chunks(
    std::size_t trials,
    const std::function<void(std::size_t, std::size_t, std::size_t)>&
        chunk_fn) const {
  if (trials == 0) return;
  if (legacy_) {
    run_chunks_legacy(trials, chunk_fn);
    return;
  }

  const std::size_t size = chunk_size(trials);
  const std::size_t n_chunks = chunk_count(trials);
  const std::size_t workers = jobs_ < n_chunks ? jobs_ : n_chunks;

  if (workers <= 1) {
    // Serial path: same chunk geometry (so reduce() merges the exact
    // same partial sequence), no threads at all. The first failing
    // trial is the lowest-index one by construction.
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::size_t begin = c * size;
      const std::size_t end = begin + size < trials ? begin + size : trials;
      try {
        chunk_fn(c, begin, end);
      } catch (TrialIndexedError& te) {
        std::rethrow_exception(te.inner);
      }
    }
    return;
  }

  // Shared drain state; one no-allocation drainer task per worker. The
  // cursor hands out chunk indices in order, so early chunks start
  // first, but completion order is scheduling-dependent — which is
  // fine, because every result is keyed by chunk/trial index, never by
  // worker.
  struct Drain {
    const std::function<void(std::size_t, std::size_t, std::size_t)>* fn;
    std::size_t trials, size, n_chunks;
    std::atomic<std::size_t> cursor{0};
    LowestErrorSlot error{};

    void run() {
      std::size_t c;
      while ((c = cursor.fetch_add(1, std::memory_order_relaxed)) <
             n_chunks) {
        const std::size_t begin = c * size;
        // Fail fast, but deterministically: skip a chunk only when a
        // *lower-indexed* trial already failed. A chunk below the
        // recorded failure still runs, so it can claim the slot if it
        // fails too — the rethrown index never depends on timing.
        if (error.lowest.load(std::memory_order_relaxed) < begin) return;
        const std::size_t end =
            begin + size < trials ? begin + size : trials;
        try {
          (*fn)(c, begin, end);
        } catch (TrialIndexedError& te) {
          error.record(te.index, std::move(te.inner));
        } catch (...) {
          // Untagged (reduce's fold path): key by the chunk's first
          // trial — still ordered correctly relative to other chunks.
          error.record(begin, std::current_exception());
        }
      }
    }
  } drain{&chunk_fn, trials, size, n_chunks};

  {
    sim::ThreadPool pool{workers};
    for (std::size_t w = 0; w < workers; ++w) {
      pool.submit([&drain] { drain.run(); });
    }
    pool.wait_idle();
  }
  if (drain.error.any()) {
    std::rethrow_exception(drain.error.error);
  }
}

void TrialRunner::run_chunks_legacy(
    std::size_t trials,
    const std::function<void(std::size_t, std::size_t, std::size_t)>&
        chunk_fn) const {
  // Pre-chunking scheduler, preserved verbatim until its last caller
  // (perfbench's `{1, false}` initialiser) moves to `{.jobs = 1}`: one
  // pool task and one exception_ptr slot per trial.
  const std::size_t workers = jobs_ < trials ? jobs_ : trials;
  if (workers <= 1) {
    for (std::size_t i = 0; i < trials; ++i) {
      try {
        chunk_fn(i, i, i + 1);
      } catch (TrialIndexedError& te) {
        std::rethrow_exception(te.inner);
      }
    }
    return;
  }
  std::vector<std::exception_ptr> errors(trials);
  std::atomic<bool> failed{false};
  {
    sim::ThreadPool pool{workers};
    for (std::size_t i = 0; i < trials; ++i) {
      pool.submit([&, i] {
        if (failed.load(std::memory_order_relaxed)) return;  // fail fast
        try {
          chunk_fn(i, i, i + 1);
        } catch (TrialIndexedError& te) {
          errors[i] = std::move(te.inner);
          failed.store(true, std::memory_order_relaxed);
        } catch (...) {
          errors[i] = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      });
    }
    pool.wait_idle();
  }
  if (failed.load(std::memory_order_relaxed)) {
    for (std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
}

void TrialRunner::run_indexed(
    std::size_t trials, const std::function<void(std::size_t)>& fn) const {
  run_chunks(trials, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      try {
        run_one_trial(fn, i);
      } catch (TrialIndexedError&) {
        throw;
      } catch (...) {
        // Tag the failing trial so a multi-trial chunk reports the
        // exact index, not just its chunk's first trial.
        throw TrialIndexedError{i, std::current_exception()};
      }
    }
  });
}

}  // namespace tmg::scenario
