// Fixed-size latency data store with IQR outlier detection.
//
// This is the data structure at the heart of TOPOGUARD+'s Link Latency
// Inspector (paper Sec. VI-D): a bounded ring of verified per-link
// latency measurements over which Q1/Q3/IQR are computed, with threshold
// Q3 + k*IQR (k = 3 in the paper).
//
// Fast path: alongside the ring the window maintains a sorted mirror of
// the same samples (O(log n) search + O(n) memmove per add — cheap at
// LLI window sizes) and a cached threshold recomputed only after the
// contents change. Because the mirror holds the identical multiset of
// doubles the naive copy+sort would produce, quantile_sorted sees the
// same sorted sequence and the threshold is bit-identical.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "stats/quantile.hpp"

namespace tmg::stats {

class LatencyWindow {
 public:
  /// @param capacity   max samples retained (oldest evicted first)
  /// @param k          IQR fence multiplier (paper: 3.0)
  /// @param min_samples samples required before a threshold is produced;
  ///        below this, every observation is accepted as calibration.
  explicit LatencyWindow(std::size_t capacity, double k = 3.0,
                         std::size_t min_samples = 5);

  /// Record a verified latency sample (milliseconds or any unit —
  /// consistent units are the caller's responsibility).
  void add(double sample);

  /// Current anomaly threshold (Q3 + k*IQR), or nullopt until warmed up.
  [[nodiscard]] std::optional<double> threshold() const;

  /// True if `sample` exceeds the current threshold. Returns false while
  /// the window is still warming up (no basis for rejection yet).
  [[nodiscard]] bool is_outlier(double sample) const;

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool warmed_up() const { return buf_.size() >= min_samples_; }

  /// Snapshot of retained samples (oldest first).
  [[nodiscard]] std::vector<double> samples() const;

  void clear();

  /// Coherence audit: the sorted mirror must hold exactly the ring's
  /// samples in nondecreasing order, and the cached threshold must equal
  /// the naive sort-and-compute reference. Sorted list of violations.
  [[nodiscard]] std::vector<std::string> audit() const;

 private:
  std::size_t capacity_;
  double k_;
  std::size_t min_samples_;
  std::vector<double> buf_;  // ring buffer
  std::size_t head_ = 0;     // insertion point once full
  bool full_ = false;
  // Fast path: sorted mirror of buf_'s contents + memoized threshold.
  std::vector<double> sorted_;
  mutable std::optional<double> cached_threshold_;
  mutable bool cache_dirty_ = true;
};

}  // namespace tmg::stats
