// Fixed-size thread pool for the parallel trial runner.
//
// Deliberately minimal: one shared FIFO queue, a fixed worker count, no
// work stealing and no dynamic resizing. Simulation code itself stays
// strictly single-threaded — each submitted job must own every object it
// touches (its own EventLoop/Testbed/Rng). tmglint's determinism rule
// `threading` bans threading primitives everywhere in src/ except this
// file and the trial runner, so concurrency cannot leak into the
// simulator core.
//
// Task records are InlineFn<64> — a submitted lambda capturing up to 64
// bytes costs no allocation, so the trial runner's chunk-drainer tasks
// (one pointer of capture) are allocation-free end to end.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/inline_fn.hpp"

namespace tmg::sim {

class ThreadPool {
 public:
  /// Task record: move-only, small-buffer-optimized callable.
  using Job = InlineFn<64>;

  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(std::size_t threads);

  /// Drains outstanding jobs, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a job. Jobs must not submit further jobs to the same pool
  /// and must not throw (wrap and capture exceptions at the call site).
  void submit(Job job);

  /// Block until the queue is empty and every worker is idle.
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// Dense index of the pool worker the calling thread is, or 0 when the
  /// caller is not a pool worker. The trial runner's serial path runs on
  /// the caller's thread, so "not a worker" and "worker 0" deliberately
  /// share slot 0: per-worker arenas indexed by this value work for both
  /// the serial and the pooled path.
  static std::size_t worker_index();

  /// Default parallelism: one worker per hardware thread (>= 1).
  static std::size_t hardware_jobs();

 private:
  void worker_main(std::size_t index);

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for jobs / stop
  std::condition_variable idle_cv_;   // wait_idle() waits for quiescence
  std::deque<Job> queue_;
  std::vector<std::thread> workers_;
  std::size_t active_ = 0;  // jobs currently executing
  bool stop_ = false;
};

}  // namespace tmg::sim
