#include "stats/latency_window.hpp"

#include <algorithm>
#include <cassert>

namespace tmg::stats {

LatencyWindow::LatencyWindow(std::size_t capacity, double k,
                             std::size_t min_samples)
    : capacity_{capacity}, k_{k}, min_samples_{min_samples} {
  assert(capacity_ > 0);
  assert(min_samples_ > 0);
  buf_.reserve(capacity_);
  sorted_.reserve(capacity_);
}

void LatencyWindow::add(double sample) {
  if (full_) {
    // Evict the ring slot we are about to overwrite from the mirror.
    const auto it =
        std::lower_bound(sorted_.begin(), sorted_.end(), buf_[head_]);
    assert(it != sorted_.end() && *it == buf_[head_]);
    sorted_.erase(it);
  }
  sorted_.insert(std::lower_bound(sorted_.begin(), sorted_.end(), sample),
                 sample);
  cache_dirty_ = true;
  if (!full_) {
    buf_.push_back(sample);
    if (buf_.size() == capacity_) full_ = true;
    return;
  }
  buf_[head_] = sample;
  head_ = (head_ + 1) % capacity_;
}

std::optional<double> LatencyWindow::threshold() const {
  if (!warmed_up()) return std::nullopt;
  if (cache_dirty_) {
    // sorted_ is the same multiset of doubles the naive copy+sort would
    // produce, so quantile_sorted computes the identical value.
    cached_threshold_ = compute_iqr_sorted(sorted_).upper_fence(k_);
    cache_dirty_ = false;
  }
  return cached_threshold_;
}

bool LatencyWindow::is_outlier(double sample) const {
  const auto t = threshold();
  return t.has_value() && sample > *t;
}

std::vector<double> LatencyWindow::samples() const {
  if (!full_) return buf_;
  std::vector<double> out;
  out.reserve(buf_.size());
  for (std::size_t i = 0; i < buf_.size(); ++i) {
    out.push_back(buf_[(head_ + i) % capacity_]);
  }
  return out;
}

void LatencyWindow::clear() {
  buf_.clear();
  head_ = 0;
  full_ = false;
  sorted_.clear();
  cached_threshold_.reset();
  cache_dirty_ = true;
}

std::vector<std::string> LatencyWindow::audit() const {
  std::vector<std::string> issues;
  if (sorted_.size() != buf_.size()) {
    issues.push_back("latency window mirror size " +
                     std::to_string(sorted_.size()) + " != ring size " +
                     std::to_string(buf_.size()));
    return issues;
  }
  if (!std::is_sorted(sorted_.begin(), sorted_.end())) {
    issues.push_back("latency window mirror is not sorted");
  }
  std::vector<double> reference = buf_;
  std::sort(reference.begin(), reference.end());
  if (reference != sorted_) {
    issues.push_back(
        "latency window mirror diverges from sorted ring contents");
  }
  if (!cache_dirty_ && warmed_up() && !reference.empty()) {
    const double naive = compute_iqr_sorted(reference).upper_fence(k_);
    if (!cached_threshold_ || *cached_threshold_ != naive) {
      issues.push_back(
          "latency window cached threshold diverges from naive recompute");
    }
  }
  std::sort(issues.begin(), issues.end());
  return issues;
}

}  // namespace tmg::stats
