// Shared machinery of the benchmark driver: set-up, the timed trial
// loop, outcome checks and the result line. main.cpp runs the untraced
// mode; layers.cpp builds the traced mode from the same pieces.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "scenario/trial_arena.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;     // required, except with --setup-only
  bool trace = false;
  bool setup_only = false;  // one set-up, print its warm-up digest, exit
  std::string digests;      // committed per-trial digests
};

/// Host monotonic clock in seconds since process start.
double now_s();

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One span of the traced mode: a call the benchmark made into the
/// simulator, on the host clock relative to process start.
struct Span {
  std::string name;
  std::size_t id = 0;
  std::size_t parent = 0;  // 0 = root
  double start_s = 0.0;
  double end_s = 0.0;
};

class SpanLog {
 public:
  /// Open a span now; returns its id (ids start at 1).
  std::size_t open(std::string name, std::size_t parent = 0);
  void close(std::size_t id);
  [[nodiscard]] const Span& at(std::size_t id) const { return spans_[id - 1]; }
  [[nodiscard]] double duration_s(std::size_t id) const;
  /// JSON lines, one span per line.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Trial times on a log scale, 32 bins per octave from 2^-8 ms to
/// 2^16 ms: fixed memory however many trials a run completes. Each bin
/// keeps its smallest and largest sample, so a quantile is exact where
/// the bins around it hold at most two samples (a fleet run's few
/// trials) and interpolated inside a bin where they hold more.
class TimeHistogram {
 public:
  void add(double ms);
  /// Quantile at rank q * (n - 1), linear between neighbouring samples
  /// as for a sorted list; 0 if empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  struct Bin {
    std::uint32_t count = 0;
    double lo = 0.0;
    double hi = 0.0;
  };
  static constexpr int kPerOctave = 32;
  static constexpr int kLowestOctave = -8;
  static constexpr int kOctaves = 24;
  std::array<Bin, kPerOctave * kOctaves> bins_{};
  std::uint64_t count_ = 0;
};

/// Host speed, read from a fixed reference kernel (reference.cpp) run
/// between rounds on the benchmark's own thread. A busy neighbour on a
/// shared host slows the kernel much as it slows the simulator, so host
/// time multiplied by scale() -- host time on a host where the kernel
/// takes kReferenceMs -- repeats from run to run where host time does
/// not.
class HostSpeed {
 public:
  /// Run the kernel once and remember its host time.
  void probe();
  /// One probe per kProbeEvery_s of host time since the last, at most
  /// kTrail of them; kTrail on the first call.
  void catch_up();
  /// kReferenceMs over the median of the last kTrail probe times.
  [[nodiscard]] double scale() const;
  /// Median host ms of every probe so far (diagnostics).
  [[nodiscard]] double median_probe_ms() const { return median(all_ms_); }
  /// Sum of the kernel's results, so its work cannot be optimised away.
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

  static constexpr double kReferenceMs = 4.0;
  static constexpr double kProbeEvery_s = 0.1;
  static constexpr std::size_t kTrail = 5;

 private:
  std::vector<double> all_ms_;
  double last_s_ = -1.0;
  std::uint64_t checksum_ = 0;
};

/// Outcome of a sequence of trials.
struct Pass {
  /// Every trial's time scaled to the reference host (when the pass
  /// had a HostSpeed).
  TimeHistogram ref_trial_ms;
  double ref_elapsed_s = 0.0;         // round time on the reference host
  std::vector<double> trial_ms;       // every trial's host time, if kept
  std::vector<std::uint64_t> digest;  // per-trial outcome digests kept
  std::map<std::size_t, std::string> problems;  // failed trials only
  std::size_t trials = 0;
  double elapsed_s = 0.0;             // host time inside trial rounds
  std::size_t run_span = 0;           // span of the whole pass, if traced
  [[nodiscard]] std::size_t failed() const { return problems.size(); }
  /// Record a failure of trial `i` unless it already has one.
  void fail(std::size_t i, const std::string& why) { problems.emplace(i, why); }
};

/// Called with every trial's result (traced mode: counts).
using ResultSink = std::function<void(const TrialResult&)>;
/// Called before every round with the pass's host time so far; work it
/// does is not part of any trial or round.
using Interlude = std::function<void(double elapsed_s)>;

struct PassOptions {
  TrialOptions trial;
  /// Keep every trial's time and digest; otherwise only the digests of
  /// the first `min_trials` trials are kept.
  bool keep_all = false;
  ResultSink sink;
  Interlude interlude;
  SpanLog* spans = nullptr;   // every trial a child span of one run span
  HostSpeed* speed = nullptr;  // probed between rounds, scales the times
};

/// Run trials 0, 1, 2, ... of the workload in whole rounds of cells
/// until `seconds` of host time have passed inside the rounds, and never
/// fewer than `min_trials`. Exceptions are recorded as trial problems.
Pass timed_pass(Workload& w, std::uint64_t seed, double seconds,
                std::size_t min_trials, const PassOptions& options);

/// Run the given trial indices once each (warm-ups and replays).
Pass run_trials(Workload& w, std::uint64_t seed,
                const std::vector<std::size_t>& indices,
                const TrialOptions& options);

/// One set-up: build the inputs, then warm up on every cell in `arena`.
/// Returns the warm-up's outcomes folded into one digest; throws if a
/// warm-up trial fails.
std::uint64_t set_up(Workload& w, std::uint64_t seed,
                     tmg::scenario::TrialArena& arena);

/// One set-up in a fresh process: this executable run with
/// --setup-only. Returns the seconds from just before the spawn to the
/// child's report, scaled to the reference host by probes taken just
/// before and just after; throws if the child fails or its warm-up
/// digest differs from `expected`.
double child_set_up(const Args& args, std::uint64_t expected,
                    HostSpeed& speed);

/// The reference kernel: fixed work on standard containers (an event
/// heap of callbacks over a hash table of shared objects), none of it
/// simulator code. Returns a checksum of that work.
std::uint64_t reference_kernel();

/// Set-ups per run, spread evenly over the timed phase.
constexpr std::size_t kSetupReps = 7;

/// Checks shared by both modes. Marks a trial failed when its digest
/// differs from the committed one for this seed, or when replaying it
/// gives another digest. Returns a one-line note per finding.
std::vector<std::string> check_outcomes(Workload& w, const Args& args,
                                        Pass& pass,
                                        tmg::scenario::TrialArena& arena);

/// Peak resident set of this process image (VmHWM), in MB.
double peak_rss_mb();

/// Print the result line and return the exit code (0 only if correct).
int report(bool correct, std::size_t attempted, std::size_t failed,
           const std::vector<Metric>& metrics);

/// The traced mode (layers.cpp).
int run_traced(Workload& w, const Args& args);

}  // namespace perfbench
