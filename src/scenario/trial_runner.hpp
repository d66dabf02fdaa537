// Parallel trial execution for the paper-reproduction benches.
//
// Every figure/table is an aggregate over hundreds (to millions) of
// independent seeded trials. Each trial builds its own
// EventLoop/Testbed/Rng, so trials are embarrassingly parallel —
// provided no state crosses trial boundaries. The determinism contract
// (DESIGN.md §7):
//
//   1. No cross-trial state. A trial may only touch objects it created.
//      Process-wide counters that feed trial output (the per-thread
//      trace-id counter) are reset by the runner before every trial.
//   2. Seed derivation. Trial i's seed comes from
//      TrialRunner::trial_seed(base_seed, i) — a pure function of the
//      base seed and the trial index, never of scheduling order.
//   3. Ordered merge. Results land in a vector indexed by trial number
//      (map), or in per-chunk partial aggregates merged in chunk-index
//      order (reduce); aggregation happens on the caller's thread.
//
// Scheduling is chunked: the index range [0, trials) is cut into
// contiguous chunks whose boundaries depend on the trial count alone —
// never on the worker count — and workers drain chunks from a shared
// cursor. Because chunk boundaries and the merge order are
// jobs-independent, `--jobs N` produces byte-identical results for
// every N, including reduce() over order-sensitive accumulators like
// stats::StreamingQuantile (tests/trial_runner_test.cpp asserts this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace tmg::scenario {

struct TrialRunnerOptions {
  /// Worker count. 0 = one per hardware thread; 1 = the serial path (no
  /// threads are created at all).
  std::size_t jobs = 0;
  /// Run the pre-chunking scheduler: one pool task per trial and a
  /// per-trial exception vector (--legacy-runner on the benches). Kept
  /// only while perfbench/src/main.cpp aggregate-initialises
  /// `TrialRunnerOptions{1, false}`; once it writes `{.jobs = 1}`, this
  /// flag and run_chunks_legacy go. map/run_indexed results are
  /// identical either way (tools/run_bench.py byte-diffs the attack
  /// matrix under both schedulers). reduce() under legacy holds one
  /// partial per *trial* (merged in trial order — still deterministic
  /// at any jobs value, but O(trials) accumulators, and partial
  /// boundaries differ from the chunked runner, so order-sensitive
  /// accumulators may round differently).
  bool legacy = false;
};

class TrialRunner {
 public:
  explicit TrialRunner(TrialRunnerOptions options = {});

  /// Effective worker count (never 0).
  [[nodiscard]] std::size_t jobs() const { return jobs_; }

  /// Deterministic per-trial seed: a SplitMix64 scramble of
  /// `base_seed ^ trial_index`, so neighboring trials get decorrelated
  /// streams while the mapping stays a pure function of (base, index).
  static std::uint64_t trial_seed(std::uint64_t base_seed,
                                  std::size_t trial_index);

  /// Arena slot for the calling worker thread: 0 on the serial path,
  /// the pool worker index otherwise. Always < jobs(). Trial functions
  /// index per-worker TrialArenas with this.
  static std::size_t worker_slot();

  /// Reset the per-thread state the determinism contract (§7 rule 1)
  /// requires fresh at trial entry — currently the packet trace-id
  /// counter. run_indexed/map and reduce() both apply it before every
  /// trial; exposed for custom drivers built directly on run_indexed.
  static void reset_trial_thread_state();

  /// Run `trials` independent trials of `fn` and return the results in
  /// trial-index order. `fn` must be callable concurrently from multiple
  /// threads and must not share mutable state across invocations.
  template <typename Fn>
  auto map(std::size_t trials, Fn&& fn)
      -> std::vector<decltype(fn(std::size_t{0}))> {
    using Result = decltype(fn(std::size_t{0}));
    std::vector<Result> results(trials);
    run_indexed(trials, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

  /// Streaming aggregation: run `trials` trials and fold each into a
  /// per-chunk accumulator, then merge the chunk accumulators on the
  /// caller's thread in chunk-index order. Memory is O(chunks), never
  /// O(trials) — a 10^6-trial sweep holds at most kMaxChunks partial
  /// aggregates and zero per-trial results. (Exception: the legacy
  /// baseline's chunks are single trials, so it keeps one partial per
  /// trial — see TrialRunnerOptions::legacy.)
  ///
  ///   make():            -> Acc        fresh accumulator (per chunk,
  ///                                    plus one for the merged total)
  ///   fold(acc, i):      accumulate trial i into this chunk's acc
  ///   merge(total, acc): absorb a chunk accumulator (chunk order)
  ///
  /// Because chunk boundaries are a function of the trial count alone,
  /// the fold/merge sequence — and therefore the result, bit for bit —
  /// is identical for every jobs value, even when merge() does not
  /// commute or associate (floating-point sums, P² quantile states).
  template <typename MakeFn, typename FoldFn, typename MergeFn>
  auto reduce(std::size_t trials, MakeFn&& make, FoldFn&& fold,
              MergeFn&& merge) const -> decltype(make()) {
    using Acc = decltype(make());
    // Size the partials to the geometry the scheduler actually emits:
    // the legacy baseline schedules one single-trial chunk per trial
    // (chunk index == trial index), not the <= kMaxChunks static grid.
    const std::size_t n_chunks = legacy_ ? trials : chunk_count(trials);
    std::vector<std::optional<Acc>> partials(n_chunks);
    run_chunks(trials,
               [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                 Acc acc = make();
                 for (std::size_t i = begin; i < end; ++i) {
                   reset_trial_thread_state();
                   fold(acc, i);
                 }
                 partials[chunk] = std::move(acc);
               });
    Acc total = make();
    for (std::optional<Acc>& p : partials) {
      merge(total, std::move(*p));
    }
    return total;
  }

  /// Type-erased core: invoke `fn(i)` once for each i in [0, trials),
  /// possibly concurrently, blocking until all trials finish. Each
  /// invocation runs with a freshly reset trace-id counter. If any trial
  /// throws, the exception from the lowest-numbered failing trial is
  /// rethrown after the batch completes.
  void run_indexed(std::size_t trials,
                   const std::function<void(std::size_t)>& fn) const;

  /// Chunk geometry (static, jobs-independent): ceil(trials/kMaxChunks)
  /// trials per chunk, so small batches get one-trial chunks (full
  /// fan-out) and huge batches amortize scheduling over at most
  /// kMaxChunks tasks.
  static constexpr std::size_t kMaxChunks = 64;
  static std::size_t chunk_size(std::size_t trials);
  static std::size_t chunk_count(std::size_t trials);

 private:
  /// Chunked scheduler shared by run_indexed and reduce: invoke
  /// `chunk_fn(chunk, begin, end)` for every chunk, possibly
  /// concurrently. Per-trial trace-id isolation is the chunk_fn's job —
  /// both run_indexed and reduce() call reset_trial_thread_state()
  /// before every trial inside their chunk lambdas.
  void run_chunks(
      std::size_t trials,
      const std::function<void(std::size_t, std::size_t, std::size_t)>&
          chunk_fn) const;

  void run_chunks_legacy(
      std::size_t trials,
      const std::function<void(std::size_t, std::size_t, std::size_t)>&
          chunk_fn) const;

  std::size_t jobs_;
  bool legacy_;
};

}  // namespace tmg::scenario
