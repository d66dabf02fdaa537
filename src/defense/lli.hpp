// Link Latency Inspector (TOPOGUARD+, paper Sec. VI-D).
//
// Out-of-band port amnesia needs no in-window port flap, but the relay
// channel (wireless hop + re-encoding) unavoidably adds latency that a
// genuine switch-to-switch wire does not have. The LLI estimates each
// link's latency from the encrypted departure-timestamp TLV minus the
// control-link delays, keeps verified samples in a fixed-size store, and
// flags any measurement above Q3 + 3*IQR.
#pragma once

#include <vector>

#include "ctrl/controller.hpp"
#include "ctrl/defense_module.hpp"
#include "stats/latency_window.hpp"

namespace tmg::defense {

struct LliConfig {
  /// Fixed-size data store of verified link latencies (paper Sec. VI-D).
  std::size_t window_capacity = 100;
  /// Samples required before the threshold is enforced.
  std::size_t min_samples = 10;
  /// An LLDP without a decryptable timestamp cannot be latency-verified.
  bool require_timestamp = true;
  /// Block anomalous topology updates ("may optionally block", paper).
  bool block = true;
};

class Lli : public ctrl::DefenseModule {
 public:
  Lli(ctrl::Controller& ctrl, LliConfig config = {});

  [[nodiscard]] std::string name() const override { return "LLI"; }

  ctrl::Verdict on_lldp_observation(const ctrl::LldpObservation& obs) override;

  /// Cache-coherence self-check: the latency window's incremental
  /// threshold must match the naive sort-based recompute.
  [[nodiscard]] std::vector<std::string> audit() const override;

  /// Current anomaly threshold in ms (Fig. 11's upper series).
  [[nodiscard]] std::optional<double> threshold_ms() const {
    return window_.threshold();
  }

  /// Full measurement log, for regenerating Figs. 10 and 11.
  struct Measurement {
    sim::SimTime at;
    topo::Link link;
    double latency_ms = 0.0;
    std::optional<double> threshold_ms;
    bool flagged = false;
  };
  [[nodiscard]] const std::vector<Measurement>& measurements() const {
    return log_;
  }

  [[nodiscard]] std::uint64_t detections() const { return detections_; }

 private:
  ctrl::Controller& ctrl_;
  LliConfig config_;
  stats::LatencyWindow window_;
  std::vector<Measurement> log_;
  std::uint64_t detections_ = 0;
};

}  // namespace tmg::defense
