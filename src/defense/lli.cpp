#include "defense/lli.hpp"

#include <cstdio>

namespace tmg::defense {

using ctrl::Alert;
using ctrl::AlertType;
using ctrl::Verdict;

namespace {
/// IQR fence multiplier (paper: 3).
constexpr double kIqrK = 3.0;
}  // namespace

Lli::Lli(ctrl::Controller& ctrl, LliConfig config)
    : ctrl_{ctrl},
      config_{config},
      window_{config.window_capacity, kIqrK, config.min_samples} {}

Verdict Lli::on_lldp_observation(const ctrl::LldpObservation& obs) {
  const sim::SimTime now = ctrl_.loop().now();

  if (!obs.link_latency) {
    if (!config_.require_timestamp) return Verdict::Allow;
    ctrl_.alerts().raise(Alert{
        now, name(), AlertType::LliMissingTimestamp,
        "LLDP for " + obs.src.to_string() + " -> " + obs.dst.to_string() +
            " lacks a decryptable departure timestamp",
        obs.dst});
    return config_.block ? Verdict::Block : Verdict::Allow;
  }

  const double latency_ms = obs.link_latency->to_millis_f();
  const auto threshold = window_.threshold();
  const bool flagged = window_.is_outlier(latency_ms);

  log_.push_back(Measurement{now, topo::Link{obs.src, obs.dst}, latency_ms,
                             threshold, flagged});

  if (flagged) {
    ++detections_;
    char msg[192];
    std::snprintf(msg, sizeof msg,
                  "link delay is abnormal. delay:%.0fms, threshold:%.0fms "
                  "(%s -> %s)",
                  latency_ms, threshold.value_or(0.0),
                  obs.src.to_string().c_str(), obs.dst.to_string().c_str());
    ctrl_.alerts().raise(
        Alert{now, name(), AlertType::LliAbnormalLatency, msg, obs.dst});
    return config_.block ? Verdict::Block : Verdict::Allow;
  }

  // Verified sample: feeds the calibration store.
  window_.add(latency_ms);
  return Verdict::Allow;
}

std::vector<std::string> Lli::audit() const {
  std::vector<std::string> issues;
  for (std::string& issue : window_.audit()) {
    issues.push_back("LLI: " + issue);
  }
  return issues;
}

}  // namespace tmg::defense
